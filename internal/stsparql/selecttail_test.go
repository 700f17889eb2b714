package stsparql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

// The SELECT tail's solution modifiers, checked on answers written out
// by hand over three triples: a p "1", b p "2", a q "x". Each case runs
// through the executor and through the oracle, so both must follow
// SPARQL 1.1 — ORDER BY before projection, over any in-scope variable,
// and an unbound key before every bound value (§15.1).

func tailStore(extra ...rdf.Triple) *strabon.Store {
	st := strabon.NewStore()
	st.AddAll(append([]rdf.Triple{
		rdf.NewTriple(tailIRI("a"), tailIRI("p"), rdf.Literal("1")),
		rdf.NewTriple(tailIRI("b"), tailIRI("p"), rdf.Literal("2")),
		rdf.NewTriple(tailIRI("a"), tailIRI("q"), rdf.Literal("x")),
	}, extra...))
	return st
}

func tailIRI(s string) rdf.Term { return rdf.IRI("http://ex/" + s) }

// tailRows renders each row as its variables' values joined by spaces,
// an IRI by its local name and an unbound variable as "-".
func tailRows(res *Result) string {
	var rows []string
	for _, b := range res.Bindings {
		var cols []string
		for _, v := range res.Vars {
			t, ok := b[v]
			switch {
			case !ok:
				cols = append(cols, "-")
			case t.Kind == rdf.KindIRI:
				cols = append(cols, strings.TrimPrefix(t.Value, "http://ex/"))
			default:
				cols = append(cols, t.Value)
			}
		}
		rows = append(rows, strings.Join(cols, " "))
	}
	return strings.Join(rows, ", ")
}

type tailCase struct {
	name, query, want string
}

func runTailCases(t *testing.T, st *strabon.Store, cases []tailCase) {
	t.Helper()
	eng := New(st)
	for _, c := range cases {
		query := "PREFIX ex: <http://ex/>\n" + c.query
		res, err := eng.Query(query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tailRows(res); got != c.want {
			t.Errorf("%s: executor returned %q, want %q", c.name, got, c.want)
		}
		ores, err := eng.oracleQuery(context.Background(), query)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if got := tailRows(ores); got != c.want {
			t.Errorf("%s: oracle returned %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelectTailOrderBy(t *testing.T) {
	runTailCases(t, tailStore(), []tailCase{
		{"DESC on a key that is not projected",
			`SELECT ?s WHERE { ?s ex:p ?v } ORDER BY DESC(?v)`, "b, a"},
		{"unbound OPTIONAL key sorts first",
			`SELECT ?s ?o WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?o } } ORDER BY ?o ?s`, "b -, a x"},
		{"DESC puts the unbound key last",
			`SELECT ?s ?o WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?o } } ORDER BY DESC(?o) ?s`, "a x, b -"},
		// Sorted on ?v the rows are (q "x"), (p "2"), (p "1"); DISTINCT
		// keeps each ?p's first row in that order.
		{"DISTINCT after a key that is not projected",
			`SELECT DISTINCT ?p WHERE { ?s ?p ?v } ORDER BY DESC(?v)`, "q, p"},
		// Sorted, a's "x" comes first; deduplicating before sorting would
		// keep a's first row, "1", and put b first.
		{"DISTINCT keeps the first row in sorted order",
			`SELECT DISTINCT ?s WHERE { ?s ?p ?v } ORDER BY DESC(?v)`, "a, b"},
		// With every key projected, the executor deduplicates before it
		// sorts; the answer must not change.
		{"DISTINCT over projected keys",
			`SELECT DISTINCT ?s ?p WHERE { ?s ?p ?v . ?x ex:p ?w } ORDER BY ?p DESC(?s)`, "b p, a p, a q"},
		{"expression key",
			`SELECT ?v WHERE { ?s ?p ?v } ORDER BY DESC(STR(?s)) ?v`, "2, 1, x"},
		{"ORDER BY an expression projection",
			`SELECT ?s (STR(?p) AS ?w) WHERE { ?s ?p ?v } ORDER BY DESC(?w) ?s`, "a http://ex/q, a http://ex/p, b http://ex/p"},
		{"OFFSET after ORDER BY",
			`SELECT ?v WHERE { ?s ?p ?v } ORDER BY ?v LIMIT 1 OFFSET 1`, "2"},
	})
}

func TestSelectTailAggregates(t *testing.T) {
	n := tailIRI("n")
	st := tailStore(
		rdf.NewTriple(tailIRI("a"), n, rdf.IntegerLiteral(4)),
		rdf.NewTriple(tailIRI("b"), n, rdf.IntegerLiteral(3)),
		rdf.NewTriple(tailIRI("b"), n, rdf.IntegerLiteral(5)))
	runTailCases(t, st, []tailCase{
		{"COUNT(*)", `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?v }`, "6"},
		{"COUNT(*) over no rows is one group",
			`SELECT (COUNT(*) AS ?n) WHERE { ?s ex:r ?v }`, "0"},
		{"GROUP BY over no rows has no group",
			`SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:r ?v } GROUP BY ?s`, ""},
		{"groups in first-seen order",
			`SELECT ?s (COUNT(?v) AS ?c) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s ex:n ?v } GROUP BY ?s`,
			"a 1 4 4, b 2 3 5"},
		{"ORDER BY an aggregate",
			`SELECT ?s (SUM(?v) AS ?t) (AVG(?v) AS ?m) WHERE { ?s ex:n ?v } GROUP BY ?s ORDER BY DESC(?t)`,
			"b 8 4, a 4 4"},
		{"MIN and MAX over mixed terms",
			`SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s ex:p ?v }`, "1 2"},
		{"COUNT of an OPTIONAL variable and of an expression",
			`SELECT (COUNT(?o) AS ?c) (COUNT(STR(?o)) AS ?d) WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?o } }`, "1 1"},
		{"an unbound group key",
			`SELECT ?o (COUNT(*) AS ?c) WHERE { ?s ex:p ?v . OPTIONAL { ?s ex:q ?o } } GROUP BY ?o ORDER BY ?o`, "- 1, x 1"},
		{"ORDER BY a grouping key that is not projected",
			`SELECT (COUNT(*) AS ?c) WHERE { ?s ex:n ?v } GROUP BY ?s ORDER BY DESC(?s)`, "2, 1"},
		{"SUM of an expression",
			`SELECT (SUM(?v * 2) AS ?t) WHERE { ?s ex:n ?v }`, "24"},
		{"SUM over no value is unbound",
			`SELECT (SUM(?o) AS ?t) WHERE { ?s ex:r ?o }`, "-"},
	})
	eng := New(st)
	for _, c := range []struct{ query, err string }{
		{`SELECT (SUM(?v) AS ?t) WHERE { ?s ex:q ?v }`, `SUM over non-numeric value "x"`},
		{`SELECT ?v (COUNT(*) AS ?c) WHERE { ?s ex:p ?v } GROUP BY ?s`, "?v is not in GROUP BY"},
		{`SELECT (STR(?v) AS ?w) WHERE { ?s ex:p ?v } GROUP BY ?s`, "allow only aggregate expression projections"},
		{`SELECT (MAX(?v, ?s) AS ?w) WHERE { ?s ex:p ?v }`, "MAX takes one argument"},
	} {
		query := "PREFIX ex: <http://ex/>\n" + c.query
		if _, err := eng.Query(query); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: executor error %v, want %q", c.query, err, c.err)
		}
		if _, err := eng.oracleQuery(context.Background(), query); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: oracle error %v, want %q", c.query, err, c.err)
		}
	}
}
