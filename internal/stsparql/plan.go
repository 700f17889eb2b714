package stsparql

import (
	"math"

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

type nodeKind int

const (
	nodeScan     nodeKind = iota + 1 // pattern with no previously-bound variable
	nodeJoin                         // pattern probing/joining on bound variables
	nodeBind                         // BIND(expr AS ?v)
	nodeFilter                       // FILTER(expr)
	nodeUnion                        // { A } UNION { B } ...
	nodeOptional                     // OPTIONAL { ... }
)

func (k nodeKind) String() string {
	switch k {
	case nodeScan:
		return "scan"
	case nodeJoin:
		return "join"
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
// alts/opt is meaningful, per kind.
type planNode struct {
	kind nodeKind
	pat  Pattern
	bind BindClause
	filt Expression
	alts []*groupPlan // union alternatives
	opt  *groupPlan   // optional subgroup

	est     float64 // estimated output rows
	actual  int     // measured output rows
	ran     bool    // false when short-circuited (empty input upstream)
	morsels int     // morsel batches the operator executed (0/1 = serial)
}

// groupPlan is the compiled form of one Group: ordered operators plus
// the group's spatial pushdown hints.
type groupPlan struct {
	hints map[string]geo.Envelope
	nodes []*planNode
	est   float64 // estimated output rows of the whole group
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
	patterns := g.Patterns
	if !pl.e.DisableOptimizer {
		patterns = pl.orderPatterns(patterns, bound, gp.hints)
	}
	cur := inEst
	for _, pat := range patterns {
		n := &planNode{kind: nodeJoin, pat: pat}
		if !patternJoins(pat, bound) {
			n.kind = nodeScan
		}
		cur *= pl.estimatePattern(pat, bound, gp.hints)
		n.est = cur
		gp.nodes = append(gp.nodes, n)
		for _, vv := range pat.Vars() {
			bound[vv] = true
		}
	}
	for _, bc := range g.Binds {
		gp.nodes = append(gp.nodes, &planNode{kind: nodeBind, bind: bc, est: cur})
		bound[bc.Var] = true
	}
	for _, f := range g.Filters {
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

// orderPatterns greedily picks the pattern with the smallest estimated
// per-row match count next, treating variables bound by earlier patterns
// (or the seed) as join keys. bound is not mutated.
func (pl *planner) orderPatterns(patterns []Pattern, bound map[string]bool, hints map[string]geo.Envelope) []Pattern {
	if len(patterns) <= 1 {
		return patterns
	}
	local := copyBound(bound)
	remaining := append([]Pattern(nil), patterns...)
	ordered := make([]Pattern, 0, len(patterns))
	for len(remaining) > 0 {
		bestIdx, bestCost := 0, math.Inf(1)
		for i, pat := range remaining {
			if cost := pl.estimatePattern(pat, local, hints); cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		chosen := remaining[bestIdx]
		ordered = append(ordered, chosen)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		for _, vv := range chosen.Vars() {
			local[vv] = true
		}
	}
	return ordered
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
				if v, g, ok := varConstGeom(call.Args, pl.e); ok {
					_ = v
					if meters, ok2 := numericValue(lit.Term); ok2 {
						// Same conservative degree expansion the pushdown
						// hint uses (1 degree ≥ ~78 km below 45° lat).
						env := g.Geom.Envelope().Expand(meters / 78000)
						return pl.spatialSelectivity(env)
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
			if _, g, ok := varConstGeom(t.Args, pl.e); ok {
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
