package stsparql

import (
	"math"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/strabon"
)

// The physical plan. A parsed WHERE group compiles into an explicit
// operator DAG — scan → probe/join → filter → project — planned ONCE per
// evaluation against the snapshot's statistics (per-predicate triple and
// distinct-subject/object counts, R-tree spatial selectivity), then
// executed; every node records its estimated and measured output
// cardinality plus the morsel-parallelism it used, which is exactly what
// EXPLAIN renders. The same planner orders the test oracle's patterns, so
// the oracle and the executor always agree on join order.
//
// FILTERs run where their variables bind. Each filter splits on `&&`
// into conjuncts, and a conjunct whose variables the group's patterns
// all bind runs right after the first pattern that completes them; the
// rest (a variable from BIND, OPTIONAL, UNION or an enclosing group, or
// none at all) run after the group's BINDs, as every filter did before.
// Placing a conjunct cannot change a result or its order: a join emits,
// for each input row in order, that row's matches in order, and a
// conjunct over variables the row already binds keeps or drops all of
// them alike. The join order does take placed conjuncts into account
// (orderPatterns), so a join that lets one run early goes first.
//
// Where a pattern shares no variable with the rows bound so far — a
// cross product — and a placed conjunct relates a geometry of those rows
// to one the pattern's run binds, the run becomes one spatial index
// join instead (planSpatialJoin, vexec.go's evalSpatialJoin), with the
// same output row for row. Engine.DisableSpatialPushdown turns it off
// together with the spatial hints.

type nodeKind int

const (
	nodeScan        nodeKind = iota + 1 // pattern with no previously-bound variable
	nodeJoin                            // pattern probing/joining on bound variables
	nodeSpatialJoin                     // R-tree join of a pattern run to the rows so far
	nodeBind                            // BIND(expr AS ?v)
	nodeFilter                          // FILTER(expr)
	nodeUnion                           // { A } UNION { B } ...
	nodeOptional                        // OPTIONAL { ... }
)

func (k nodeKind) String() string {
	switch k {
	case nodeScan:
		return "scan"
	case nodeJoin:
		return "join"
	case nodeSpatialJoin:
		return "spatial-join"
	case nodeBind:
		return "bind"
	case nodeFilter:
		return "filter"
	case nodeUnion:
		return "union"
	case nodeOptional:
		return "optional"
	}
	return "?"
}

// planNode is one physical operator. Exactly one of pat/bind/filt/
// alts/opt is meaningful, per kind, except that a spatial join has both
// filt (the conjunct it applies) and inner.
type planNode struct {
	kind  nodeKind
	pat   Pattern
	bind  BindClause
	filt  Expression
	alts  []*groupPlan // union alternatives
	opt   *groupPlan   // optional subgroup
	inner *groupPlan   // spatial join: the pattern run, evaluated once
	sj    spatialJoin  // spatial join: how filt relates the two sides

	est     float64 // estimated output rows
	actual  int     // measured output rows
	ran     bool    // false when short-circuited (empty input upstream)
	morsels int     // morsel batches the operator executed (0/1 = serial)
	// Spatial join only: outer rows that probed the R-tree, and inner
	// rows the probes returned for the exact check.
	probes, candidates atomic.Int64
}

// groupPlan is the compiled form of one Group: ordered operators plus
// the group's spatial pushdown hints.
type groupPlan struct {
	hints map[string]geo.Envelope
	nodes []*planNode
	// run is the length of the leading pattern run — scans, joins,
	// spatial joins and the conjuncts placed among them. Once one of
	// them empties the table, the rest of the run is skipped.
	run int
	est float64 // estimated output rows of the whole group
}

// planner compiles Groups against one snapshot's statistics.
type planner struct {
	e          *Engine
	snap       *strabon.Snapshot
	spatialSel map[geo.Envelope]float64 // memoised R-tree selectivities
}

func copyBound(b map[string]bool) map[string]bool {
	nb := make(map[string]bool, len(b))
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// patternJoins reports whether the pattern shares a variable with the
// already-bound set (i.e. executes as a join rather than a scan).
func patternJoins(pat Pattern, bound map[string]bool) bool {
	for _, v := range pat.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// planGroup compiles one group. bound is mutated: on return it also
// contains every variable the group binds, mirroring the slot widths the
// executor will see (sub-plans of later siblings may treat them as join
// keys). inEst is the estimated input cardinality.
func (pl *planner) planGroup(g *Group, bound map[string]bool, inEst float64) *groupPlan {
	if g == nil {
		return &groupPlan{est: inEst}
	}
	gp := &groupPlan{hints: pl.e.spatialHints(g.Filters)}
	pending, residual := splitConjuncts(g)
	patterns := g.Patterns
	if !pl.e.DisableOptimizer {
		patterns = pl.orderPatterns(patterns, bound, gp.hints, pending)
	}
	cur := inEst
	byPatterns := map[string]bool{} // variables this group's patterns bound so far
	for i := 0; i < len(patterns); {
		pat := patterns[i]
		if !patternJoins(pat, bound) && !pl.e.DisableSpatialPushdown {
			if n, end := pl.planSpatialJoin(patterns, i, bound, byPatterns, &pending, gp.hints, cur); n != nil {
				gp.nodes = append(gp.nodes, n)
				cur = n.est
				for _, p := range patterns[i:end] {
					for _, vv := range p.Vars() {
						bound[vv], byPatterns[vv] = true, true
					}
				}
				cur = pl.placeConjuncts(gp, &pending, byPatterns, cur)
				i = end
				continue
			}
		}
		cur = pl.planPattern(gp, pat, bound, byPatterns, &pending, cur)
		i++
	}
	gp.run = len(gp.nodes)
	for _, bc := range g.Binds {
		gp.nodes = append(gp.nodes, &planNode{kind: nodeBind, bind: bc, est: cur})
		bound[bc.Var] = true
	}
	for _, f := range residual {
		cur *= pl.filterSelectivity(f)
		gp.nodes = append(gp.nodes, &planNode{kind: nodeFilter, filt: f, est: cur})
	}
	for _, alts := range g.Unions {
		n := &planNode{kind: nodeUnion}
		// Every alternative sees the pre-union bound set (the executor
		// reseeds each one from the same table); their variables merge
		// into the bound set only after the whole block.
		newly := map[string]bool{}
		var sum float64
		for _, alt := range alts {
			ab := copyBound(bound)
			ap := pl.planGroup(alt, ab, cur)
			n.alts = append(n.alts, ap)
			sum += ap.est
			for v := range ab {
				newly[v] = true
			}
		}
		for v := range newly {
			bound[v] = true
		}
		cur = sum
		n.est = cur
		gp.nodes = append(gp.nodes, n)
	}
	for _, opt := range g.Optionals {
		// Optionals run sequentially: each sees the variables bound by
		// the previous one (the executor's table width has grown).
		op := pl.planGroup(opt, bound, cur)
		cur = math.Max(cur, op.est)
		gp.nodes = append(gp.nodes, &planNode{kind: nodeOptional, opt: op, est: cur})
	}
	gp.est = cur
	return gp
}

// planPattern appends pat's scan or join node to gp, marks its
// variables bound, places the pending conjuncts it completes, and
// returns the estimated rows after them.
func (pl *planner) planPattern(gp *groupPlan, pat Pattern, bound, byPatterns map[string]bool, pending *[]Expression, cur float64) float64 {
	n := &planNode{kind: nodeJoin, pat: pat}
	if !patternJoins(pat, bound) {
		n.kind = nodeScan
	}
	cur *= pl.estimatePattern(pat, bound, gp.hints)
	n.est = cur
	gp.nodes = append(gp.nodes, n)
	for _, vv := range pat.Vars() {
		bound[vv], byPatterns[vv] = true, true
	}
	return pl.placeConjuncts(gp, pending, byPatterns, cur)
}

// splitConjuncts splits the group's FILTERs on `&&` into the conjuncts
// to place among its patterns — each names a variable, and every one
// it names is bound by a pattern and not assigned by a BIND — and the
// residual ones, which run after the BINDs.
func splitConjuncts(g *Group) (placed, residual []Expression) {
	byPatterns := map[string]bool{}
	for _, p := range g.Patterns {
		for _, v := range p.Vars() {
			byPatterns[v] = true
		}
	}
	for _, bc := range g.Binds {
		delete(byPatterns, bc.Var)
	}
	var split func(Expression)
	split = func(ex Expression) {
		if b, ok := ex.(*EBinary); ok && b.Op == "&&" {
			split(b.Left)
			split(b.Right)
			return
		}
		if vars := exprVars(ex); len(vars) > 0 && allIn(vars, byPatterns) {
			placed = append(placed, ex)
		} else {
			residual = append(residual, ex)
		}
	}
	for _, f := range g.Filters {
		split(f)
	}
	return placed, residual
}

func allIn(vars []string, set map[string]bool) bool {
	for _, v := range vars {
		if !set[v] {
			return false
		}
	}
	return true
}

// placeConjuncts appends a filter node for each pending conjunct whose
// variables byPatterns now all holds, removes it from pending, and
// returns the estimate after them.
func (pl *planner) placeConjuncts(gp *groupPlan, pending *[]Expression, byPatterns map[string]bool, cur float64) float64 {
	rest := (*pending)[:0]
	for _, c := range *pending {
		if !allIn(exprVars(c), byPatterns) {
			rest = append(rest, c)
			continue
		}
		cur *= pl.filterSelectivity(c)
		gp.nodes = append(gp.nodes, &planNode{kind: nodeFilter, filt: c, est: cur})
	}
	*pending = rest
	return cur
}

// spatialJoin is a conjunct a spatial index join applies: it can hold
// only where the geometries of outer and inner lie within meters of
// each other — for a topological predicate, meters is 0 and their
// envelopes intersect.
type spatialJoin struct {
	outer, inner string
	meters       float64
}

// intersectingPredicates are the topological predicates that hold only
// between geometries whose envelopes intersect: all but disjoint.
var intersectingPredicates = map[string]bool{
	"intersects": true, "anyinteract": true, "within": true, "contains": true,
	"equals": true, "touches": true, "overlaps": true, "crosses": true,
}

// spatialConjunct recognises the conjuncts spatial pushdown prunes by:
// strdf:distance(x, y) < r (or <=, either operand order), which holds
// only for geometries within r metres of each other, and an
// intersecting predicate, which holds only for geometries whose
// envelopes intersect (meters 0). It returns the two geometry arguments.
// The spatial hints (a variable and a constant) and the spatial index
// join (two variables) both read conjuncts through it.
func spatialConjunct(c Expression) (args []Expression, meters float64, ok bool) {
	switch t := c.(type) {
	case *EBinary:
		call, lit, flipped := distanceShape(t)
		if call == nil {
			return nil, 0, false
		}
		op := t.Op
		if flipped {
			op = flipCmp(op)
		}
		m, ok := numericValue(lit.Term)
		if !ok || (op != "<" && op != "<=") {
			return nil, 0, false
		}
		return call.Args, m, true
	case *ECall:
		if (t.NS == "strdf" || t.NS == "geof") && intersectingPredicates[t.Name] && len(t.Args) == 2 {
			return t.Args, 0, true
		}
	}
	return nil, 0, false
}

// matchSpatialJoin recognises a spatial conjunct over two distinct
// variables.
func matchSpatialJoin(c Expression) (spatialJoin, bool) {
	args, meters, ok := spatialConjunct(c)
	if !ok {
		return spatialJoin{}, false
	}
	x, ok1 := args[0].(*EVar)
	y, ok2 := args[1].(*EVar)
	if !ok1 || !ok2 || x.Name == y.Name {
		return spatialJoin{}, false
	}
	return spatialJoin{outer: x.Name, inner: y.Name, meters: meters}, true
}

// planSpatialJoin plans patterns[i], which shares no variable with the
// rows bound so far and would start a cross product, as a spatial index
// join when a pending conjunct relates a geometry this group's patterns
// already bound to one bound by the run of patterns starting at i —
// the shortest run that binds it while sharing no variable with those
// rows either, so that it can be evaluated once, and that binds it as a
// pattern's object. Conjuncts over the run's variables alone are placed
// inside it. It returns the join node and the end of the run, or nil.
func (pl *planner) planSpatialJoin(patterns []Pattern, i int, bound, byPatterns map[string]bool, pending *[]Expression, hints map[string]geo.Envelope, cur float64) (*planNode, int) {
	for k, c := range *pending {
		sj, ok := matchSpatialJoin(c)
		if !ok {
			continue
		}
		if byPatterns[sj.inner] {
			sj.outer, sj.inner = sj.inner, sj.outer
		}
		if !byPatterns[sj.outer] || bound[sj.inner] {
			continue
		}
		end := runEnd(patterns, i, bound, sj.inner)
		if end < 0 || !bindsObject(patterns[i:end], sj.inner) {
			continue
		}
		*pending = append((*pending)[:k], (*pending)[k+1:]...)
		// The run shares no variable with the rows, so it plans as a
		// group of its own from the seed row.
		inner := &groupPlan{hints: hints}
		runBound := map[string]bool{}
		est := 1.0
		for _, p := range patterns[i:end] {
			est = pl.planPattern(inner, p, runBound, runBound, pending, est)
		}
		inner.run, inner.est = len(inner.nodes), est
		return &planNode{kind: nodeSpatialJoin, filt: c, inner: inner, sj: sj,
			est: cur * est * pl.filterSelectivity(c)}, end
	}
	return nil, 0
}

// bindsObject reports whether one of patterns has v as its object: then
// every value of v is a stored object, and a spatial one is among the
// view's indexed geometries, which the join probes.
func bindsObject(patterns []Pattern, v string) bool {
	for _, p := range patterns {
		if p.O.IsVar() && p.O.Var == v {
			return true
		}
	}
	return false
}

// runEnd returns the end of the shortest run patterns[i:end] that binds
// v and shares no variable with bound, or -1.
func runEnd(patterns []Pattern, i int, bound map[string]bool, v string) int {
	for j := i; j < len(patterns); j++ {
		if patternJoins(patterns[j], bound) {
			return -1
		}
		for _, pv := range patterns[j].Vars() {
			if pv == v {
				return j + 1
			}
		}
	}
	return -1
}

// orderPatterns greedily picks the pattern with the smallest estimated
// per-row match count next, treating variables bound by earlier patterns
// (or the seed) as join keys. A join after which conjuncts (the placed
// ones of splitConjuncts) have all their variables is charged only the
// rows they are estimated to keep, since they run right after it; a
// scan is charged its whole index range, which it reads whatever runs
// next. bound is not mutated.
func (pl *planner) orderPatterns(patterns []Pattern, bound map[string]bool, hints map[string]geo.Envelope, conjuncts []Expression) []Pattern {
	if len(patterns) <= 1 {
		return patterns
	}
	local := copyBound(bound)
	byPatterns := map[string]bool{}
	remaining := append([]Pattern(nil), patterns...)
	ordered := make([]Pattern, 0, len(patterns))
	for len(remaining) > 0 {
		bestIdx, bestCost := 0, math.Inf(1)
		for i, pat := range remaining {
			cost := pl.estimatePattern(pat, local, hints)
			if patternJoins(pat, local) {
				cost *= pl.completedSelectivity(pat, byPatterns, conjuncts)
			}
			if cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		chosen := remaining[bestIdx]
		ordered = append(ordered, chosen)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for _, vv := range chosen.Vars() {
			local[vv], byPatterns[vv] = true, true
		}
	}
	return ordered
}

// completedSelectivity is the fraction of rows kept by the conjuncts
// whose last unbound variables pat binds.
func (pl *planner) completedSelectivity(pat Pattern, byPatterns map[string]bool, conjuncts []Expression) float64 {
	after := copyBound(byPatterns)
	for _, v := range pat.Vars() {
		after[v] = true
	}
	sel := 1.0
	for _, c := range conjuncts {
		if vars := exprVars(c); !allIn(vars, byPatterns) && allIn(vars, after) {
			sel *= pl.filterSelectivity(c)
		}
	}
	return sel
}

// estimatePattern returns the expected number of matches of one pattern
// PER input row, from the snapshot statistics:
//
//   - the base is the index cardinality of the pattern's constant parts;
//   - each already-bound variable restricts matches like an equality
//     selection on its component, so the base is divided by that
//     component's distinct count — per-predicate when the predicate is
//     constant (count(p)/distinctS(p) is the textbook estimate for a
//     subject-bound probe), global otherwise;
//   - a spatial filter hint on a still-unbound object multiplies by the
//     R-tree selectivity of the hint's envelope, since the executor
//     prunes candidates through the same index.
func (pl *planner) estimatePattern(pat Pattern, bound map[string]bool, hints map[string]geo.Envelope) float64 {
	var constPat strabon.TriplePattern
	pos := [3]PatTerm{pat.S, pat.P, pat.O}
	dst := [3]*uint64{&constPat.S, &constPat.P, &constPat.O}
	for i, pt := range pos {
		if pt.IsVar() {
			continue
		}
		id, ok := pl.snap.Lookup(pt.Term)
		if !ok {
			return 0 // unknown constant: the pattern cannot match
		}
		*dst[i] = id
	}
	est := float64(pl.snap.Cardinality(constPat))
	if est == 0 {
		return 0
	}
	st := pl.snap.Stats()
	pStat, havePred := st.Pred[constPat.P]
	div := func(d int) {
		if d > 1 {
			est /= float64(d)
		}
	}
	if pat.S.IsVar() && bound[pat.S.Var] {
		if havePred {
			div(pStat.DistinctS)
		} else {
			div(st.DistinctS)
		}
	}
	if pat.P.IsVar() && bound[pat.P.Var] {
		div(st.DistinctP)
	}
	if pat.O.IsVar() && bound[pat.O.Var] {
		if havePred {
			div(pStat.DistinctO)
		} else {
			div(st.DistinctO)
		}
	}
	if ov := objVar(pat); ov != "" && !bound[ov] {
		if env, ok := hints[ov]; ok {
			est *= pl.spatialSelectivity(env)
		}
	}
	return est
}

func (pl *planner) spatialSelectivity(env geo.Envelope) float64 {
	if s, ok := pl.spatialSel[env]; ok {
		return s
	}
	s := pl.snap.SpatialSelectivity(env)
	if pl.spatialSel == nil {
		pl.spatialSel = map[geo.Envelope]float64{}
	}
	pl.spatialSel[env] = s
	return s
}

// filterSelectivity estimates the fraction of rows a FILTER keeps.
// Spatial shapes use the R-tree; the rest fall back to the classic
// System-R constants (1/10 equality, 1/3 range, 1/2 default).
func (pl *planner) filterSelectivity(f Expression) float64 {
	switch t := f.(type) {
	case *EBinary:
		switch t.Op {
		case "&&":
			return pl.filterSelectivity(t.Left) * pl.filterSelectivity(t.Right)
		case "||":
			return math.Min(1, pl.filterSelectivity(t.Left)+pl.filterSelectivity(t.Right))
		case "=":
			return 0.1
		case "!=":
			return 0.9
		case "<", "<=", ">", ">=":
			if call, lit, _ := distanceShape(t); call != nil {
				if _, g, ok := varConstGeom(call.Args); ok {
					if meters, ok2 := numericValue(lit.Term); ok2 {
						return pl.spatialSelectivity(geo.ExpandMeters(g.Geom.Envelope(), meters, 90))
					}
				}
			}
			return 1.0 / 3
		}
	case *EUnary:
		if t.Op == "!" {
			return 1 - pl.filterSelectivity(t.X)
		}
	case *ECall:
		if (t.NS == "strdf" || t.NS == "geof") && spatialPredicates[t.Name] != nil {
			if _, g, ok := varConstGeom(t.Args); ok {
				return pl.spatialSelectivity(g.Geom.Envelope())
			}
			return 1.0 / 3
		}
		if t.NS == "" && t.Name == "bound" {
			return 0.9
		}
	}
	return 0.5
}
