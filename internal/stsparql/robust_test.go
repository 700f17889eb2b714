package stsparql

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

// Parser robustness: malformed inputs must error, never panic, never
// silently succeed.
func TestParserRejectsGarbage(t *testing.T) {
	inputs := []string{
		"",
		"garbage",
		"SELECT",
		"SELECT ?x",
		"SELECT ?x WHERE",
		"SELECT ?x WHERE {",
		"SELECT ?x WHERE { ?x ?p }",
		"SELECT ?x WHERE { ?x ?p ?o } ORDER",
		"SELECT ?x WHERE { ?x ?p ?o } ORDER BY",
		"SELECT ?x WHERE { ?x ?p ?o } LIMIT",
		"SELECT ?x WHERE { ?x ?p ?o } LIMIT abc",
		"SELECT ?x WHERE { ?x ?p ?o } GROUP BY 5",
		"SELECT (COUNT(* AS ?n) WHERE { ?s ?p ?o }",
		"SELECT (?x AS) WHERE { ?s ?p ?o }",
		"ASK { ?s ?p ?o",
		"CONSTRUCT WHERE { ?s ?p ?o }",
		"CONSTRUCT { ?s ?p ?o } { ?s ?p ?o }",
		"INSERT { ?s ?p ?o }",
		"DELETE { ?s ?p ?o } INSERT { ?s ?p ?o }",
		"INSERT DATA { <a> <b> ?v }",
		"PREFIX",
		"PREFIX foo <http://x/>",
		"SELECT ?x WHERE { ?x a foo:Bar }",
		"SELECT ?x WHERE { ?x ?p \"unterminated }",
		"SELECT ?x WHERE { ?x ?p ?o . FILTER }",
		"SELECT ?x WHERE { ?x ?p ?o . FILTER( }",
		"SELECT ?x WHERE { ?x ?p ?o . BIND(1 + AS ?y) }",
		"SELECT ?x WHERE { ?x ?p ?o . OPTIONAL ?x }",
		"SELECT ?x WHERE { { ?x ?p ?o } UNION }",
		"SELECT ?x WHERE { ?x ?p ?o } trailing",
		"SELECT ?x WHERE { ?x ?p \"v\"^^ }",
		"SELECT ?x WHERE { ?x ?p ?o . FILTER(?x <) }",
		"SELECT ?x WHERE { ?x ?p ?o . FILTER(?x && ) }",
		"SELECT ? WHERE { ?s ?p ?o }",
	}
	for _, q := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ParseQuery(%q) panicked: %v", q, r)
				}
			}()
			if _, err := ParseQuery(q); err == nil {
				t.Errorf("ParseQuery(%q) succeeded", q)
			}
		}()
	}
}

// Valid corner-case syntax that must parse.
func TestParserAcceptsCorners(t *testing.T) {
	inputs := []string{
		"SELECT * WHERE { }",
		"SELECT ?x WHERE { ?x a <http://x/C> . }",
		"SELECT ?x { ?x ?p ?o }", // WHERE keyword optional
		"ASK WHERE { ?s ?p ?o . ?s ?q ?r }",
		`SELECT ?x WHERE { ?x ?p "v"@en }`,
		`SELECT ?x WHERE { ?x ?p "1"^^<http://www.w3.org/2001/XMLSchema#integer> }`,
		`SELECT ?x WHERE { ?x ?p -1.5 }`,
		`SELECT ?x WHERE { ?x ?p true . ?x ?q false }`,
		`SELECT ?x WHERE { ?x ?p ?o . FILTER(!(?o = 1) && (?o < 5 || ?o > 9)) }`,
		`SELECT ?x WHERE { ?x ?p ?o ; ?q ?r , ?r2 . }`,
		"# comment\nSELECT ?x WHERE { ?x ?p ?o } # trailing",
		`SELECT ?x WHERE { _:b ?p ?x }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o } ORDER BY DESC(?x) ?o LIMIT 5 OFFSET 2`,
	}
	for _, q := range inputs {
		if _, err := ParseQuery(q); err != nil {
			t.Errorf("ParseQuery(%q) failed: %v", q, err)
		}
	}
}

// Queries over an empty store behave (no panics, empty results).
func TestEvalOnEmptyStore(t *testing.T) {
	e := New(strabon.NewStore())
	res := e.MustQuery(`SELECT * WHERE { ?s ?p ?o }`)
	if len(res.Bindings) != 0 {
		t.Fatal("empty store should have no solutions")
	}
	if e.MustQuery(`ASK WHERE { ?s ?p ?o }`).Bool {
		t.Fatal("ASK on empty store")
	}
	cnt := e.MustQuery(`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if cnt.Bindings[0]["n"].Value != "0" {
		t.Fatal("count on empty store")
	}
}

// TestDistinctGeometryConstantsHoldHeapFlat: every query constant goes
// through strdf's bounded parse cache, so a client sending ever new
// polygons cannot grow the engine's memory. 100k queries, each with a
// polygon constant no other query uses, must leave the live heap where
// the first 20k left it.
func TestDistinctGeometryConstantsHoldHeapFlat(t *testing.T) {
	st := strabon.NewStore()
	st.AddAll([]rdf.Triple{
		rdf.NewTriple(rdf.IRI("http://ex/a"), rdf.IRI("http://ex/geom"), rdf.WKTLiteral("POINT (23.5 37.5)", 4326)),
		rdf.NewTriple(rdf.IRI("http://ex/b"), rdf.IRI("http://ex/geom"), rdf.WKTLiteral("POINT (24.5 38.5)", 4326)),
	})
	e := New(st)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const total, warm = 100_000, 20_000
	var base uint64
	for i := 0; i < total; i++ {
		if i == warm {
			base = heap()
		}
		x := 20 + float64(i)/float64(total)
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/geom> ?g . FILTER(strdf:intersects(?g, "POLYGON ((%.7f 37, %.7f 37, %.7f 39, %.7f 39, %.7f 37))"^^strdf:WKT)) }`, x, x+6, x+6, x, x)
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bindings) != 2 {
			t.Fatalf("query %d: %d rows, want 2", i, len(res.Bindings))
		}
	}
	grew := int64(heap()) - int64(base)
	runtime.KeepAlive(e) // the engine's own memory is what is measured
	if grew > 4<<20 {
		t.Fatalf("live heap grew %d bytes over %d queries with distinct polygon constants", grew, total-warm)
	}
}
