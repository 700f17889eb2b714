package stsparql

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// The reference evaluator: the binding-at-a-time stSPARQL interpreter the
// vectorized executor replaced (one decoded map per solution). It is
// kept, test-only, as the oracle the equivalence suites compare the
// production executor against; it shares the planner's join order, the
// expression evaluator and the solution modifiers with production and
// differs in how graph patterns are solved: each pattern is matched by
// scanning the store's decoded triples, with no index, no posting list
// and no spatial pruning.

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
		return e.applyModify(q, bindings), nil
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

func (e *Engine) evalSelect(ctx context.Context, q *Query) (*Result, error) {
	bindings, err := e.evalGroup(ctx, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	// Aggregate projections group and collapse.
	if len(q.GroupBy) > 0 || hasAggregate(q.Projections) {
		return e.evalAggregateSelect(q, bindings)
	}
	// Determine output variables.
	vars := projectionVars(q, bindings)
	// Evaluate expression projections.
	out := make([]Binding, 0, len(bindings))
	for _, b := range bindings {
		nb := Binding{}
		for _, v := range vars {
			if t, ok := b[v]; ok {
				nb[v] = t
			}
		}
		for _, pr := range q.Projections {
			if pr.Expr == nil {
				continue
			}
			t, err := e.evalExpr(pr.Expr, b)
			if err == nil && !t.IsZero() {
				nb[pr.Var] = t
			}
		}
		out = append(out, nb)
	}
	if q.Distinct {
		out = distinctBindings(vars, out)
	}
	if len(q.OrderBy) > 0 {
		if err := e.orderBindings(out, q.OrderBy); err != nil {
			return nil, err
		}
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
