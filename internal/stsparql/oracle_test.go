package stsparql

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// The reference evaluator: the binding-at-a-time stSPARQL interpreter the
// vectorized executor replaced (one decoded map per solution). It is
// kept, test-only, as the oracle the equivalence suites compare the
// production executor against; it shares the planner's join order and
// the expression evaluator with production and differs in how graph
// patterns are solved — each pattern is matched by scanning the store's
// decoded triples, with no index, no posting list and no spatial
// pruning — and in its solution modifiers, which run on binding maps.

// oracleQuery parses and evaluates one statement through the reference
// evaluator.
func (e *Engine) oracleQuery(ctx context.Context, src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	switch q.Form {
	case FormSelect:
		return e.evalSelect(ctx, q)
	case FormAsk, FormConstruct, FormModify:
		bindings, err := e.evalGroup(ctx, q.Where, []Binding{{}})
		if err != nil {
			return nil, err
		}
		switch q.Form {
		case FormAsk:
			return &Result{Bool: len(bindings) > 0}, nil
		case FormConstruct:
			return &Result{Triples: constructTriples(q, bindings)}, nil
		}
		return affected(e.store.Apply(modifyTriples(q, bindings)))
	}
	return nil, fmt.Errorf("stsparql: oracle does not evaluate query form %d", q.Form)
}

// mustOracleQuery is oracleQuery that panics on error.
func (e *Engine) mustOracleQuery(src string) *Result {
	r, err := e.oracleQuery(context.Background(), src)
	if err != nil {
		panic(err)
	}
	return r
}

// evalSelect applies SPARQL 1.1's solution modifiers to the group's
// solutions in §18.2.5's order — aggregate or extend, ORDER BY, project,
// DISTINCT, slice — on decoded binding maps: the reference for the
// executor's id-space tail.
func (e *Engine) evalSelect(ctx context.Context, q *Query) (*Result, error) {
	bindings, err := e.evalGroup(ctx, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	var vars []string
	if len(q.GroupBy) > 0 || hasAggregate(q.Projections) {
		if bindings, err = e.oracleAggregate(q, bindings); err != nil {
			return nil, err
		}
		for _, pr := range q.Projections {
			vars = append(vars, pr.Var)
		}
	} else {
		vars = projectionVars(q, bindings)
		for _, pr := range q.Projections {
			if pr.Expr == nil {
				continue
			}
			for i, b := range bindings {
				if t, err := e.evalExpr(pr.Expr, b); err == nil {
					nb := cloneBinding(b)
					nb[pr.Var] = t
					bindings[i] = nb
				}
			}
		}
	}
	e.oracleOrder(bindings, q.OrderBy)
	out := make([]Binding, 0, len(bindings))
	for _, b := range bindings {
		nb := Binding{}
		for _, v := range vars {
			if t, ok := b[v]; ok {
				nb[v] = t
			}
		}
		out = append(out, nb)
	}
	if q.Distinct {
		out = oracleDistinct(vars, out)
	}
	if q.Offset > 0 {
		if q.Offset >= len(out) {
			out = nil
		} else {
			out = out[q.Offset:]
		}
	}
	if q.Limit >= 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return &Result{Vars: vars, Bindings: out}, nil
}

// oracleAggregate implements GROUP BY plus the SPARQL 1.1 aggregates
// COUNT, SUM, AVG, MIN and MAX, one output binding per group in
// first-seen order holding the group's keys and the aggregates' values.
// Without GROUP BY the whole solution sequence is one group.
func (e *Engine) oracleAggregate(q *Query, bindings []Binding) ([]Binding, error) {
	for _, pr := range q.Projections {
		if pr.Expr == nil {
			if !slices.Contains(q.GroupBy, pr.Var) {
				return nil, fmt.Errorf("stsparql: projected variable ?%s is not in GROUP BY", pr.Var)
			}
			continue
		}
		c, ok := pr.Expr.(*ECall)
		if !ok || !isAggregateName(c.Name) {
			return nil, fmt.Errorf("stsparql: aggregate queries allow only aggregate expression projections")
		}
	}
	type grp struct {
		rep  Binding
		rows []Binding
	}
	var groups []*grp
	if len(q.GroupBy) == 0 {
		groups = []*grp{{rep: Binding{}, rows: bindings}}
	} else {
		byKey := map[string]*grp{}
		for _, b := range bindings {
			var key strings.Builder
			for _, v := range q.GroupBy {
				key.WriteString(b[v].String())
				key.WriteByte('|')
			}
			g, ok := byKey[key.String()]
			if !ok {
				rep := Binding{}
				for _, v := range q.GroupBy {
					if t, bound := b[v]; bound {
						rep[v] = t
					}
				}
				g = &grp{rep: rep}
				byKey[key.String()] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, b)
		}
	}
	out := make([]Binding, 0, len(groups))
	for _, g := range groups {
		row := cloneBinding(g.rep)
		for _, pr := range q.Projections {
			if pr.Expr == nil {
				continue
			}
			t, err := e.oracleAggregateCall(pr.Expr.(*ECall), g.rows)
			if err != nil {
				return nil, err
			}
			if !t.IsZero() {
				row[pr.Var] = t
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// oracleAggregateCall computes one aggregate over a group's rows.
func (e *Engine) oracleAggregateCall(c *ECall, rows []Binding) (rdf.Term, error) {
	if c.Name == "count" && c.Star {
		return rdf.IntegerLiteral(int64(len(rows))), nil
	}
	if len(c.Args) != 1 {
		return rdf.Term{}, fmt.Errorf("stsparql: %s takes one argument", strings.ToUpper(c.Name))
	}
	if c.Name == "count" {
		n := 0
		for _, b := range rows {
			if v, err := e.evalExpr(c.Args[0], b); err == nil && !v.IsZero() {
				n++
			}
		}
		return rdf.IntegerLiteral(int64(n)), nil
	}
	var sum float64
	var count int
	var minT, maxT rdf.Term
	for _, b := range rows {
		v, err := e.evalExpr(c.Args[0], b)
		if err != nil {
			continue // unbound / erroring rows are skipped per SPARQL
		}
		switch c.Name {
		case "sum", "avg":
			f, ok := numericValue(v)
			if !ok {
				return rdf.Term{}, fmt.Errorf("stsparql: %s over non-numeric value %s", strings.ToUpper(c.Name), v)
			}
			sum += f
			count++
		case "min":
			if minT.IsZero() || compareTerms(v, minT) < 0 {
				minT = v
			}
			count++
		case "max":
			if maxT.IsZero() || compareTerms(v, maxT) > 0 {
				maxT = v
			}
			count++
		}
	}
	if count == 0 {
		return rdf.Term{}, nil // aggregate over the empty group is unbound
	}
	switch c.Name {
	case "sum":
		return rdf.DoubleLiteral(sum), nil
	case "avg":
		return rdf.DoubleLiteral(sum / float64(count)), nil
	case "min":
		return minT, nil
	case "max":
		return maxT, nil
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unknown aggregate %q", c.Name)
}

// oracleDistinct keeps the first binding of each projected tuple.
func oracleDistinct(vars []string, in []Binding) []Binding {
	seen := map[string]bool{}
	var out []Binding
	for _, b := range in {
		var key strings.Builder
		for _, v := range vars {
			key.WriteString(b[v].String())
			key.WriteByte('|')
		}
		if !seen[key.String()] {
			seen[key.String()] = true
			out = append(out, b)
		}
	}
	return out
}

// oracleOrder stable-sorts bindings by the ORDER BY keys, evaluated on
// every comparison; an unbound or erroring key sorts before every bound
// value (SPARQL 1.1 §15.1).
func (e *Engine) oracleOrder(bs []Binding, keys []OrderKey) {
	sort.SliceStable(bs, func(i, j int) bool {
		for _, k := range keys {
			vi, errI := e.evalExpr(k.Expr, bs[i])
			vj, errJ := e.evalExpr(k.Expr, bs[j])
			c := 0
			switch {
			case errI != nil && errJ != nil:
			case errI != nil:
				c = -1
			case errJ != nil:
				c = 1
			default:
				c = compareTerms(vi, vj)
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func projectionVars(q *Query, bindings []Binding) []string {
	if !q.SelectStar {
		vars := make([]string, 0, len(q.Projections))
		for _, pr := range q.Projections {
			vars = append(vars, pr.Var)
		}
		return vars
	}
	seen := map[string]bool{}
	var vars []string
	for _, b := range bindings {
		for v := range b {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	sort.Strings(vars)
	return vars
}

// evalGroup evaluates a graph pattern group, extending the seed bindings.
// The context is checked at group entry and inside the per-binding
// pattern loops.
func (e *Engine) evalGroup(ctx context.Context, g *Group, seed []Binding) ([]Binding, error) {
	if g == nil {
		return seed, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hints := e.spatialHints(g.Filters)
	patterns := g.Patterns
	if !e.DisableOptimizer {
		// The oracle shares the statistics-backed planner with the
		// vectorized executor.
		bound := map[string]bool{}
		if len(seed) > 0 {
			for v := range seed[0] {
				bound[v] = true
			}
		}
		pl := &planner{e: e, snap: e.store.Snapshot()}
		placed, _ := splitConjuncts(g)
		patterns = pl.orderPatterns(patterns, bound, hints, placed)
	}
	bindings := seed
	for _, pat := range patterns {
		var err error
		bindings, err = e.evalPattern(ctx, pat, bindings)
		if err != nil {
			return nil, err
		}
		if len(bindings) == 0 {
			break
		}
	}
	// BIND clauses.
	for _, bc := range g.Binds {
		for i, b := range bindings {
			t, err := e.evalExpr(bc.Expr, b)
			if err != nil {
				continue // unevaluable BIND leaves the var unbound
			}
			nb := cloneBinding(b)
			nb[bc.Var] = t
			bindings[i] = nb
		}
	}
	// FILTERs.
	for _, f := range g.Filters {
		var kept []Binding
		for _, b := range bindings {
			ok, err := e.evalFilter(f, b)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, b)
			}
		}
		bindings = kept
	}
	// UNION blocks: each surviving binding extends through every
	// alternative; the block's solutions are the concatenation.
	for _, alts := range g.Unions {
		var next []Binding
		for _, b := range bindings {
			for _, alt := range alts {
				sub, err := e.evalGroup(ctx, alt, []Binding{b})
				if err != nil {
					return nil, err
				}
				next = append(next, sub...)
			}
		}
		bindings = next
	}
	// OPTIONAL groups (left join).
	for _, opt := range g.Optionals {
		var next []Binding
		for _, b := range bindings {
			sub, err := e.evalGroup(ctx, opt, []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				next = append(next, b)
			} else {
				next = append(next, sub...)
			}
		}
		bindings = next
	}
	return bindings, nil
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// evalPattern extends each binding with the matches of one pattern,
// found by scanning every decoded triple of the store.
func (e *Engine) evalPattern(ctx context.Context, pat Pattern, bindings []Binding) ([]Binding, error) {
	triples := e.store.Triples()
	var out []Binding
	for bi, b := range bindings {
		if bi&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, t := range triples {
			if nb, ok := extend(b, pat, t); ok {
				out = append(out, nb)
			}
		}
	}
	return out, nil
}

// extend adds the pattern's variable bindings from a triple, rejecting a
// triple that differs from the pattern's constants or conflicts with
// existing bindings.
func extend(b Binding, pat Pattern, t rdf.Triple) (Binding, bool) {
	nb := b
	cloned := false
	bind := func(pt PatTerm, term rdf.Term) bool {
		if !pt.IsVar() {
			return pt.Term == term
		}
		if cur, bound := nb[pt.Var]; bound {
			return cur == term
		}
		if !cloned {
			nb = cloneBinding(b)
			cloned = true
		}
		nb[pt.Var] = term
		return true
	}
	if !bind(pat.S, t.S) || !bind(pat.P, t.P) || !bind(pat.O, t.O) {
		return nil, false
	}
	if !cloned {
		nb = cloneBinding(b)
	}
	return nb, true
}
