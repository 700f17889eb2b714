package stsparql

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/strdf"
)

// Binding maps variable names to RDF terms.
type Binding map[string]rdf.Term

// Result is the outcome of a statement.
type Result struct {
	// Vars and Bindings hold SELECT results.
	Vars     []string
	Bindings []Binding
	// Bool holds ASK results.
	Bool bool
	// Triples holds CONSTRUCT results.
	Triples []rdf.Triple
	// Affected counts update mutations.
	Affected int
}

// Engine evaluates stSPARQL against a Strabon store.
type Engine struct {
	store *strabon.Store
	// DisableOptimizer keeps basic graph patterns in syntactic order
	// (ablation A1 companion; the default orders by selectivity).
	DisableOptimizer bool
	// DisableSpatialPushdown stops spatial filters from pruning via the
	// store's R-tree (ablation A1).
	DisableSpatialPushdown bool
	// MaxParallelism bounds the morsel parallelism of one query: how many
	// workers may concurrently pull row batches from the shared
	// slot-budget pool (internal/parallel).
	// 0 means the pool's default (GOMAXPROCS); 1 forces serial
	// execution. teleios-server wires -max-query-parallelism here.
	MaxParallelism int

	// planMu guards planCache, a parsed-statement cache keyed on query
	// text (the prepared-statement idiom: the endpoint's dashboards replay
	// identical query strings against a changing store, and the result
	// cache cannot help once the store version moves). Parsed queries are
	// read-only during evaluation, so cached ASTs are shared freely.
	planMu    sync.Mutex
	planCache map[string]*Query
}

// planCacheCap bounds the parsed-statement cache; when full it is simply
// reset (query workloads cycle through a small set of templates).
const planCacheCap = 512

// New returns an engine over the given store.
func New(store *strabon.Store) *Engine {
	return &Engine{store: store}
}

// Store exposes the underlying store.
func (e *Engine) Store() *strabon.Store { return e.store }

// queryWorkers resolves the engine's per-query morsel-parallelism bound.
func (e *Engine) queryWorkers() int {
	if e.MaxParallelism > 0 {
		return e.MaxParallelism
	}
	return parallel.Parallelism()
}

// Query parses and evaluates one statement; parse results are cached per
// query text.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query under a cancellation context: evaluation stops
// (returning the context's error) when ctx is cancelled or times out.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	e.planMu.Lock()
	q, ok := e.planCache[src]
	e.planMu.Unlock()
	if !ok {
		var err error
		q, err = ParseQuery(src)
		if err != nil {
			return nil, err
		}
		e.planMu.Lock()
		if e.planCache == nil || len(e.planCache) >= planCacheCap {
			e.planCache = make(map[string]*Query)
		}
		e.planCache[src] = q
		e.planMu.Unlock()
	}
	return e.EvalContext(ctx, q)
}

// MustQuery is Query that panics on error; for tests and fixtures.
//
//lint:allow unreachable(test helper: the stsparql, linkeddata and noa tests query with it)
func (e *Engine) MustQuery(src string) *Result {
	r, err := e.Query(src)
	if err != nil {
		panic(err)
	}
	return r
}

// Eval evaluates a parsed statement.
//
//lint:allow unreachable(bench/oracle.go evaluates the oracle's parsed statements with it)
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext evaluates a parsed statement under a cancellation context.
// The executor checks ctx at operator and batch boundaries, so an
// expired endpoint deadline stops the evaluation instead of orphaning
// it. EXPLAIN statements return the executed physical plan instead of
// the statement's rows.
func (e *Engine) EvalContext(ctx context.Context, q *Query) (*Result, error) {
	if q.Explain {
		return e.evalExplain(ctx, q)
	}
	switch q.Form {
	case FormSelect:
		return e.evalSelectVec(ctx, q)
	case FormAsk:
		tb, err := newVexec(ctx, e).evalRoot(q.Where)
		if err != nil {
			return nil, err
		}
		return &Result{Bool: tb.n() > 0}, nil
	case FormConstruct:
		return e.evalConstructWith(newVexec(ctx, e), q)
	case FormInsertData:
		return affected(e.store.Apply(nil, q.Data))
	case FormDeleteData:
		return affected(e.store.Apply(q.Data, nil))
	case FormModify:
		// The WHERE is evaluated on the view Update hands over and the
		// templates' triples applied before any other write lands, so
		// concurrent modifies neither interleave nor lose updates.
		return affected(e.store.Update(func(sn *strabon.Snapshot) ([]rdf.Triple, []rdf.Triple, error) {
			v := newVexecOn(ctx, e, sn)
			tb, err := v.evalRoot(q.Where)
			if err != nil {
				return nil, nil, err
			}
			dels, ins := modifyTriples(q, v.decodeTable(tb))
			return dels, ins, nil
		}))
	}
	return nil, fmt.Errorf("stsparql: unsupported query form %d", q.Form)
}

// affected is an update statement's Result: the number of triples it
// changed, or the store's error (a journal veto wraps strabon.ErrVetoed).
func affected(n int, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n}, nil
}

// evalConstructWith runs CONSTRUCT through a caller-supplied executor
// (EXPLAIN reuses it to harvest the measured plan).
func (e *Engine) evalConstructWith(v *vexec, q *Query) (*Result, error) {
	tb, err := v.evalRoot(q.Where)
	if err != nil {
		return nil, err
	}
	return &Result{Triples: constructTriples(q, v.decodeTable(tb))}, nil
}

// constructTriples instantiates the CONSTRUCT template over solved
// bindings, deduplicating in first-seen order.
func constructTriples(q *Query, bindings []Binding) []rdf.Triple {
	var out []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for _, b := range bindings {
		for _, pat := range q.ConstructTemplate {
			t, ok := instantiate(pat, b)
			if ok && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// modifyTriples instantiates a modify's DELETE and INSERT templates over
// its WHERE solutions; Store.Apply deduplicates them.
func modifyTriples(q *Query, bindings []Binding) (dels, ins []rdf.Triple) {
	for _, b := range bindings {
		for _, pat := range q.DeleteTemplate {
			if t, ok := instantiate(pat, b); ok {
				dels = append(dels, t)
			}
		}
		for _, pat := range q.InsertTemplate {
			if t, ok := instantiate(pat, b); ok {
				ins = append(ins, t)
			}
		}
	}
	return dels, ins
}

func instantiate(pat Pattern, b Binding) (rdf.Triple, bool) {
	resolve := func(pt PatTerm) (rdf.Term, bool) {
		if !pt.IsVar() {
			return pt.Term, true
		}
		t, ok := b[pt.Var]
		return t, ok
	}
	s, ok := resolve(pat.S)
	if !ok {
		return rdf.Triple{}, false
	}
	p, ok := resolve(pat.P)
	if !ok {
		return rdf.Triple{}, false
	}
	o, ok := resolve(pat.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

func isAggregateName(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

func hasAggregate(prs []Projection) bool {
	for _, pr := range prs {
		if c, ok := pr.Expr.(*ECall); ok && isAggregateName(c.Name) {
			return true
		}
	}
	return false
}

// spatialHints extracts per-variable bounding boxes from the spatial
// conjuncts (spatialConjunct) that relate a variable to a constant
// geometry, enabling R-tree pruning during pattern evaluation. Nothing
// is known of the stored geometries' latitudes, so a distance widens
// for any (geo.ExpandMeters with 90°).
func (e *Engine) spatialHints(filters []Expression) map[string]geo.Envelope {
	if e.DisableSpatialPushdown {
		return nil
	}
	hints := map[string]geo.Envelope{}
	var walk func(ex Expression)
	walk = func(ex Expression) {
		if b, ok := ex.(*EBinary); ok && b.Op == "&&" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		if args, meters, ok := spatialConjunct(ex); ok {
			if v, g, ok := varConstGeom(args); ok {
				addHint(hints, v, geo.ExpandMeters(g.Geom.Envelope(), meters, 90))
			}
		}
	}
	for _, f := range filters {
		walk(f)
	}
	return hints
}

func addHint(hints map[string]geo.Envelope, v string, env geo.Envelope) {
	if cur, ok := hints[v]; ok {
		// Multiple constraints: intersect the boxes.
		hints[v] = cur.Intersection(env)
		return
	}
	hints[v] = env
}

// varConstGeom matches argument lists (?v, CONSTGEOM) or (CONSTGEOM, ?v).
func varConstGeom(args []Expression) (string, strdf.SpatialValue, bool) {
	if len(args) != 2 {
		return "", strdf.SpatialValue{}, false
	}
	if v, ok := args[0].(*EVar); ok {
		if lit, ok := args[1].(*ELit); ok && lit.Term.IsSpatial() {
			if g, err := strdf.ParseWGS84(lit.Term); err == nil {
				return v.Name, g, true
			}
		}
	}
	if v, ok := args[1].(*EVar); ok {
		if lit, ok := args[0].(*ELit); ok && lit.Term.IsSpatial() {
			if g, err := strdf.ParseWGS84(lit.Term); err == nil {
				return v.Name, g, true
			}
		}
	}
	return "", strdf.SpatialValue{}, false
}

func objVar(pat Pattern) string {
	if pat.O.IsVar() {
		return pat.O.Var
	}
	return ""
}
