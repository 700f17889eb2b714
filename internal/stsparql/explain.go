package stsparql

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// EXPLAIN: `EXPLAIN SELECT ...` (or ASK / CONSTRUCT) runs the statement
// through the vectorized morsel-parallel executor and returns, instead
// of the statement's rows, one plan line per physical operator — the
// join order the statistics-backed planner chose, each operator's
// estimated vs. measured cardinality, and the morsel parallelism it
// actually used. The result is an ordinary SELECT result with the single
// variable ?plan, so every endpoint serialisation (JSON, CSV, TSV) and
// strabon-shell render it without special protocol support.

// evalExplain evaluates q and renders its physical plan.
func (e *Engine) evalExplain(ctx context.Context, q *Query) (*Result, error) {
	v := newVexec(ctx, e)
	var rows int
	switch q.Form {
	case FormSelect:
		res, err := e.evalSelectVecWith(v, q)
		if err != nil {
			return nil, err
		}
		rows = len(res.Bindings)
	case FormAsk:
		tb, err := v.evalRoot(q.Where)
		if err != nil {
			return nil, err
		}
		rows = tb.n()
	case FormConstruct:
		res, err := e.evalConstructWith(v, q)
		if err != nil {
			return nil, err
		}
		rows = len(res.Triples)
	default:
		return nil, fmt.Errorf("stsparql: EXPLAIN supports SELECT, ASK and CONSTRUCT")
	}
	lines := v.explainLines(q, rows)
	out := make([]Binding, len(lines))
	for i, ln := range lines {
		out[i] = Binding{"plan": rdf.Literal(ln)}
	}
	return &Result{Vars: []string{"plan"}, Bindings: out}, nil
}

// explainLines renders the executed plan tree.
func (v *vexec) explainLines(q *Query, finalRows int) []string {
	order := "statistics"
	if v.e.DisableOptimizer {
		order = "syntactic"
	}
	lines := []string{fmt.Sprintf(
		"%s  executor=vectorized(morsel-parallel)  workers=%d  order=%s  snapshot=v%d(%d triples)",
		formName(q.Form), v.workers, order, v.snap.Version(), v.snap.NRows())}
	lines = appendPlanLines(lines, v.plan, 1)
	lines = append(lines, fmt.Sprintf("%s%-*s rows=%d", "  ", labelWidth, projectLabel(q), finalRows))
	return lines
}

// labelWidth aligns the est/rows columns across operators.
const labelWidth = 52

func appendPlanLines(lines []string, gp *groupPlan, depth int) []string {
	indent := strings.Repeat("  ", depth)
	for _, n := range gp.nodes {
		label := fmt.Sprintf("%-8s %s", n.kind, nodeLabel(n))
		stats := fmt.Sprintf("est=%-9s rows=%d", fmtEst(n.est), n.actual)
		if !n.ran {
			stats = fmt.Sprintf("est=%-9s (not executed: empty input)", fmtEst(n.est))
		}
		if n.morsels > 1 {
			stats += fmt.Sprintf("  morsels=%d", n.morsels)
		}
		if n.kind == nodeSpatialJoin && n.ran {
			stats += fmt.Sprintf("  probes=%d  candidates=%d", n.probes.Load(), n.candidates.Load())
		}
		lines = append(lines, fmt.Sprintf("%s%-*s %s", indent, labelWidth, truncLabel(label), stats))
		switch n.kind {
		case nodeSpatialJoin:
			// The run under the join executed once: its rows= count each
			// inner row once, not once per outer row.
			lines = appendPlanLines(lines, n.inner, depth+1)
		case nodeUnion:
			for i, alt := range n.alts {
				lines = append(lines, fmt.Sprintf("%s  alt %d", indent, i+1))
				lines = appendPlanLines(lines, alt, depth+2)
			}
		case nodeOptional:
			lines = appendPlanLines(lines, n.opt, depth+1)
		}
	}
	return lines
}

func nodeLabel(n *planNode) string {
	switch n.kind {
	case nodeScan, nodeJoin:
		return patternString(n.pat)
	case nodeBind:
		return fmt.Sprintf("BIND(%s AS ?%s)", exprString(n.bind.Expr), n.bind.Var)
	case nodeFilter, nodeSpatialJoin:
		return exprString(n.filt)
	case nodeUnion:
		return fmt.Sprintf("%d alternatives", len(n.alts))
	case nodeOptional:
		return ""
	}
	return ""
}

func projectLabel(q *Query) string {
	switch q.Form {
	case FormAsk:
		return "project  ASK"
	case FormConstruct:
		return "project  CONSTRUCT"
	}
	var parts []string
	if q.Distinct {
		parts = append(parts, "DISTINCT")
	}
	if q.SelectStar {
		parts = append(parts, "*")
	}
	for _, pr := range q.Projections {
		parts = append(parts, "?"+pr.Var)
	}
	label := "project  " + strings.Join(parts, " ")
	if len(q.OrderBy) > 0 {
		label += "  ORDER BY"
	}
	if q.Limit >= 0 {
		label += fmt.Sprintf("  LIMIT %d", q.Limit)
	}
	return truncLabel(label)
}

func formName(f QueryForm) string {
	switch f {
	case FormSelect:
		return "SELECT"
	case FormAsk:
		return "ASK"
	case FormConstruct:
		return "CONSTRUCT"
	}
	return fmt.Sprintf("form(%d)", int(f))
}

// fmtEst renders a cardinality estimate: integers above ~10, two
// significant digits below (fractional estimates are meaningful there).
func fmtEst(est float64) string {
	if est >= 9.5 {
		return strconv.FormatFloat(est, 'f', 0, 64)
	}
	return strconv.FormatFloat(est, 'g', 2, 64)
}

// truncLabel caps operator labels so huge WKT literals don't wreck the
// plan's alignment.
func truncLabel(s string) string {
	return truncRunes(s, labelWidth)
}

// truncRunes cuts s to at most max bytes WITHOUT splitting a multi-byte
// rune (Greek place names are routine in this corpus; a byte-index cut
// would emit invalid UTF-8 into the JSON/CSV serialisers).
func truncRunes(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := 0
	for i := range s {
		if i > max-len("…") {
			break
		}
		cut = i
	}
	return s[:cut] + "…"
}

func patTermString(pt PatTerm) string {
	if pt.IsVar() {
		return "?" + pt.Var
	}
	return termString(pt.Term)
}

// termString is rdf.Term rendering with long spatial literals elided.
func termString(t rdf.Term) string {
	return truncRunes(t.String(), 40)
}

func patternString(pat Pattern) string {
	p := patTermString(pat.P)
	if !pat.P.IsVar() && pat.P.Term.Kind == rdf.KindIRI && pat.P.Term.Value == rdf.RDFType {
		p = "a" // the SPARQL rdf:type shorthand keeps plan lines readable
	}
	return patTermString(pat.S) + " " + p + " " + patTermString(pat.O)
}

// exprString renders a FILTER/BIND expression in SPARQL-ish infix form.
func exprString(ex Expression) string {
	switch t := ex.(type) {
	case *EVar:
		return "?" + t.Name
	case *ELit:
		return termString(t.Term)
	case *EUnary:
		return t.Op + exprString(t.X)
	case *EBinary:
		return "(" + exprString(t.Left) + " " + t.Op + " " + exprString(t.Right) + ")"
	case *ECall:
		name := t.Name
		if t.NS != "" {
			name = t.NS + ":" + name
		}
		if t.Star {
			return name + "(*)"
		}
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = exprString(a)
		}
		return name + "(" + strings.Join(args, ", ") + ")"
	}
	return "?expr"
}
