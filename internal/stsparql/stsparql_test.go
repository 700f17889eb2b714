package stsparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

const exNS = "http://example.org/"
const noaNS = "http://teleios.di.uoa.gr/noa#"

// fixtureStore builds a small catalogue: hotspots with geometries and
// confidences, towns, and one forest polygon.
func fixtureStore() *strabon.Store {
	st := strabon.NewStore()
	add := func(s, p string, o rdf.Term) {
		st.Add(rdf.NewTriple(rdf.IRI(exNS+s), rdf.IRI(noaNS+p), o))
	}
	typ := func(s, class string) {
		st.Add(rdf.NewTriple(rdf.IRI(exNS+s), rdf.IRI(rdf.RDFType), rdf.IRI(noaNS+class)))
	}
	// Three hotspots.
	typ("h1", "Hotspot")
	add("h1", "hasGeometry", rdf.WKTLiteral("POINT (23.0 38.0)", 4326))
	add("h1", "hasConfidence", rdf.DoubleLiteral(0.9))
	typ("h2", "Hotspot")
	add("h2", "hasGeometry", rdf.WKTLiteral("POINT (24.5 38.5)", 4326))
	add("h2", "hasConfidence", rdf.DoubleLiteral(0.6))
	typ("h3", "Hotspot")
	add("h3", "hasGeometry", rdf.WKTLiteral("POINT (26.0 36.5)", 4326))
	add("h3", "hasConfidence", rdf.DoubleLiteral(0.95))
	// Towns.
	typ("townA", "Town")
	add("townA", "hasGeometry", rdf.WKTLiteral("POINT (23.01 38.01)", 4326))
	st.Add(rdf.NewTriple(rdf.IRI(exNS+"townA"), rdf.IRI(rdf.RDFSLabel), rdf.Literal("Alpha")))
	typ("townB", "Town")
	add("townB", "hasGeometry", rdf.WKTLiteral("POINT (25.5 39.5)", 4326))
	st.Add(rdf.NewTriple(rdf.IRI(exNS+"townB"), rdf.IRI(rdf.RDFSLabel), rdf.Literal("Bravo")))
	// A forest polygon containing h2.
	typ("forest1", "Forest")
	add("forest1", "hasGeometry", rdf.WKTLiteral("POLYGON ((24 38, 25 38, 25 39, 24 39, 24 38))", 4326))
	return st
}

func TestSelectBasic(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h WHERE { ?h a noa:Hotspot }`)
	if len(res.Bindings) != 3 {
		t.Fatalf("hotspots = %d", len(res.Bindings))
	}
	if res.Vars[0] != "h" {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestSelectJoinAndFilter(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h ?c WHERE {
			?h a noa:Hotspot .
			?h noa:hasConfidence ?c .
			FILTER(?c >= 0.8)
		} ORDER BY DESC(?c)`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	if res.Bindings[0]["h"].Value != exNS+"h3" {
		t.Fatalf("order: %v", res.Bindings[0]["h"])
	}
}

func TestSpatialIntersectsFilter(t *testing.T) {
	e := New(fixtureStore())
	// Which hotspots fall in the forest polygon?
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h WHERE {
			?h a noa:Hotspot .
			?h noa:hasGeometry ?g .
			FILTER(strdf:intersects(?g, "POLYGON ((24 38, 25 38, 25 39, 24 39, 24 38))"^^strdf:WKT))
		}`)
	if len(res.Bindings) != 1 || res.Bindings[0]["h"].Value != exNS+"h2" {
		t.Fatalf("bindings = %v", res.Bindings)
	}
}

func TestSpatialJoinTwoVars(t *testing.T) {
	e := New(fixtureStore())
	// Hotspots within forests: var-var spatial join.
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h ?f WHERE {
			?h a noa:Hotspot .
			?h noa:hasGeometry ?hg .
			?f a noa:Forest .
			?f noa:hasGeometry ?fg .
			FILTER(strdf:within(?hg, ?fg))
		}`)
	if len(res.Bindings) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	if res.Bindings[0]["f"].Value != exNS+"forest1" {
		t.Fatal("join result")
	}
}

func TestDistanceQuery(t *testing.T) {
	e := New(fixtureStore())
	// The paper's flagship pattern: fire within 2 km of a site (townA is
	// ~1.4 km from h1).
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h ?t WHERE {
			?h a noa:Hotspot .
			?h noa:hasGeometry ?hg .
			?t a noa:Town .
			?t noa:hasGeometry ?tg .
			FILTER(strdf:distance(?hg, ?tg) < 2000)
		}`)
	if len(res.Bindings) != 1 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	if res.Bindings[0]["h"].Value != exNS+"h1" || res.Bindings[0]["t"].Value != exNS+"townA" {
		t.Fatalf("pair = %v", res.Bindings[0])
	}
}

func TestSpatialPushdownEquivalence(t *testing.T) {
	st := fixtureStore()
	withIdx := New(st)
	resA := withIdx.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h WHERE {
			?h noa:hasGeometry ?g .
			FILTER(strdf:intersects(?g, "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:WKT))
		}`)
	noPush := New(st)
	noPush.DisableSpatialPushdown = true
	noPush.DisableOptimizer = true
	resB := noPush.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h WHERE {
			?h noa:hasGeometry ?g .
			FILTER(strdf:intersects(?g, "POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))"^^strdf:WKT))
		}`)
	if len(resA.Bindings) != len(resB.Bindings) {
		t.Fatalf("pushdown changes results: %d vs %d", len(resA.Bindings), len(resB.Bindings))
	}
	// h1, townA, and forest1 (which shares the x=24 edge with the box).
	if len(resA.Bindings) != 3 {
		t.Fatalf("rows = %d", len(resA.Bindings))
	}
}

// TestDistancePushdownHighLatitude: a site 5 km from a probe at 60°N,
// one 3 km away across the pole, and a footprint spanning 60–64°N whose
// distance to the 60°N probe is measured at 62°N are within 6 km — with
// pushdown on, by a constant geometry or by a probe variable, as with
// it off. A fixed 78 km-per-degree widening pruned the first two; a
// widening at the probe's own latitude pruned the footprint.
func TestDistancePushdownHighLatitude(t *testing.T) {
	st := strabon.NewStore()
	add := func(name, class, wkt string) {
		s := rdf.IRI(exNS + name)
		st.Add(rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI(exNS+class)))
		st.Add(rdf.NewTriple(s, rdf.IRI(noaNS+"hasGeometry"), rdf.WKTLiteral(wkt, 4326)))
	}
	add("probe60", "Probe", "POINT (10.09 60)")
	add("probePole", "Probe", "POINT (0 89.99)")
	add("near60", "Site", "POINT (10.0 60)")
	add("far60", "Site", "POINT (10.3 60)")
	add("acrossPole", "Site", "POINT (170 89.99)")
	add("footprint60", "Site", "POLYGON ((10.201 60, 11.201 60, 11.201 64, 10.201 64, 10.201 60))")
	const prefixes = `PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		PREFIX ex: <http://example.org/>
		`
	queries := map[string]string{
		prefixes + `SELECT ?s WHERE { ?s a ex:Site . ?s noa:hasGeometry ?g .
			FILTER(strdf:distance(?g, "POINT (10.09 60)"^^strdf:WKT) < 6000) }`: "near60 footprint60",
		prefixes + `SELECT ?s WHERE { ?s a ex:Site . ?s noa:hasGeometry ?g .
			FILTER(strdf:distance(?g, "POINT (0 89.99)"^^strdf:WKT) < 6000) }`: "acrossPole",
		prefixes + `SELECT ?p ?s WHERE { ?p a ex:Probe . ?p noa:hasGeometry ?pg .
			?s a ex:Site . ?s noa:hasGeometry ?g .
			FILTER(strdf:distance(?pg, ?g) < 6000) }`: "near60 footprint60 acrossPole",
	}
	joinProbes(func(probe string) {
		for q, want := range queries {
			for _, push := range []bool{true, false} {
				e := New(st)
				e.DisableSpatialPushdown = !push
				var got []string
				for _, b := range e.MustQuery(q).Bindings {
					got = append(got, strings.TrimPrefix(b["s"].Value, exNS))
				}
				if strings.Join(got, " ") != want {
					t.Errorf("%s, pushdown=%v: sites %v, want %s\n%s", probe, push, got, want, q)
				}
				if push && strings.Contains(q, "(?pg, ?g)") {
					if plan := explainText(t, e, "EXPLAIN "+q); !strings.Contains(plan, "spatial-join") {
						t.Errorf("the probe × site distance did not plan as a spatial join:\n%s", plan)
					}
				}
			}
		}
	})
}

func TestAsk(t *testing.T) {
	e := New(fixtureStore())
	yes := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		ASK WHERE { ?h a noa:Hotspot }`)
	if !yes.Bool {
		t.Fatal("ASK should be true")
	}
	no := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		ASK WHERE { ?h a noa:Volcano }`)
	if no.Bool {
		t.Fatal("ASK should be false")
	}
}

func TestConstruct(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX ex: <http://example.org/>
		CONSTRUCT { ?h a ex:ConfirmedFire } WHERE {
			?h a noa:Hotspot .
			?h noa:hasConfidence ?c .
			FILTER(?c > 0.8)
		}`)
	if len(res.Triples) != 2 {
		t.Fatalf("constructed = %d", len(res.Triples))
	}
	for _, tr := range res.Triples {
		if tr.O.Value != exNS+"ConfirmedFire" {
			t.Fatalf("triple = %v", tr)
		}
	}
}

func TestInsertDeleteData(t *testing.T) {
	st := strabon.NewStore()
	e := New(st)
	res := e.MustQuery(`
		PREFIX ex: <http://example.org/>
		INSERT DATA {
			ex:a a ex:Thing .
			ex:a ex:score 5 .
		}`)
	if res.Affected != 2 || st.Len() != 2 {
		t.Fatalf("inserted = %d, len = %d", res.Affected, st.Len())
	}
	res2 := e.MustQuery(`
		PREFIX ex: <http://example.org/>
		DELETE DATA { ex:a ex:score 5 . }`)
	if res2.Affected != 1 || st.Len() != 1 {
		t.Fatalf("deleted = %d, len = %d", res2.Affected, st.Len())
	}
	// Deleting absent data affects 0.
	res3 := e.MustQuery(`
		PREFIX ex: <http://example.org/>
		DELETE DATA { ex:ghost ex:p ex:q . }`)
	if res3.Affected != 0 {
		t.Fatal("ghost delete")
	}
}

func TestModifyDeleteInsertWhere(t *testing.T) {
	e := New(fixtureStore())
	// Reclassify low-confidence hotspots (the refinement idiom).
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX ex: <http://example.org/>
		DELETE { ?h a noa:Hotspot }
		INSERT { ?h a noa:RejectedHotspot }
		WHERE {
			?h a noa:Hotspot .
			?h noa:hasConfidence ?c .
			FILTER(?c < 0.8)
		}`)
	if res.Affected != 2 { // one delete + one insert
		t.Fatalf("affected = %d", res.Affected)
	}
	left := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h WHERE { ?h a noa:Hotspot }`)
	if len(left.Bindings) != 2 {
		t.Fatalf("remaining hotspots = %d", len(left.Bindings))
	}
	rejected := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h WHERE { ?h a noa:RejectedHotspot }`)
	if len(rejected.Bindings) != 1 || rejected.Bindings[0]["h"].Value != exNS+"h2" {
		t.Fatalf("rejected = %v", rejected.Bindings)
	}
}

func TestDeleteWhereShorthand(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		DELETE WHERE { ?t a noa:Town }`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	if e.MustQuery(`PREFIX noa: <http://teleios.di.uoa.gr/noa#> ASK WHERE { ?t a noa:Town }`).Bool {
		t.Fatal("towns should be gone")
	}
}

func TestOptional(t *testing.T) {
	e := New(fixtureStore())
	// Towns have labels; hotspots do not.
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?x ?label WHERE {
			?x noa:hasGeometry ?g .
			OPTIONAL { ?x rdfs:label ?label }
		}`)
	if len(res.Bindings) != 6 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	labelled := 0
	for _, b := range res.Bindings {
		if _, ok := b["label"]; ok {
			labelled++
		}
	}
	if labelled != 2 {
		t.Fatalf("labelled = %d", labelled)
	}
}

func TestBindAndProjectionExpr(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h ?pct WHERE {
			?h noa:hasConfidence ?c .
			BIND(?c * 100 AS ?pct)
			FILTER(?pct > 80)
		}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("rows = %d", len(res.Bindings))
	}
	// Projection expression form.
	res2 := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT (?c * 2 AS ?double) WHERE { <http://example.org/h1> noa:hasConfidence ?c }`)
	if v := res2.Bindings[0]["double"]; v.Value != "1.8" {
		t.Fatalf("double = %v", v)
	}
}

func TestCount(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT (COUNT(*) AS ?n) WHERE { ?h a noa:Hotspot }`)
	if res.Bindings[0]["n"].Value != "3" {
		t.Fatalf("count = %v", res.Bindings[0]["n"])
	}
	res2 := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT (COUNT(?label) AS ?n) WHERE {
			?x noa:hasGeometry ?g . OPTIONAL { ?x rdfs:label ?label }
		}`)
	if res2.Bindings[0]["n"].Value != "2" {
		t.Fatalf("count bound = %v", res2.Bindings[0]["n"])
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT DISTINCT ?class WHERE { ?x a ?class } ORDER BY ?class`)
	if len(res.Bindings) != 3 { // Forest, Hotspot, Town
		t.Fatalf("classes = %d", len(res.Bindings))
	}
	lim := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h WHERE { ?h a noa:Hotspot } ORDER BY ?h LIMIT 2 OFFSET 1`)
	if len(lim.Bindings) != 2 || lim.Bindings[0]["h"].Value != exNS+"h2" {
		t.Fatalf("page = %v", lim.Bindings)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(REGEX(?l, "^Al")) }`)
	if len(res.Bindings) != 1 {
		t.Fatalf("regex rows = %d", len(res.Bindings))
	}
	res2 := e.MustQuery(`
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(STRSTARTS(STR(?l), "Br")) }`)
	if len(res2.Bindings) != 1 {
		t.Fatalf("strstarts rows = %d", len(res2.Bindings))
	}
	res3 := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?x WHERE { ?x noa:hasConfidence ?c . FILTER(isLiteral(?c) && !isIRI(?c)) }`)
	if len(res3.Bindings) != 3 {
		t.Fatalf("isLiteral rows = %d", len(res3.Bindings))
	}
}

func TestSpatialConstructors(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT (strdf:buffer(?g, 2000) AS ?zone) (strdf:area(strdf:buffer(?g, 2000)) AS ?a)
		WHERE { <http://example.org/h1> noa:hasGeometry ?g }`)
	if len(res.Bindings) != 1 {
		t.Fatal("rows")
	}
	zone := res.Bindings[0]["zone"]
	if !zone.IsSpatial() {
		t.Fatalf("zone = %v", zone)
	}
	// Area of a 2km-radius disc is ~12.6 km^2.
	var area float64
	fmt.Sscanf(res.Bindings[0]["a"].Value, "%g", &area)
	if area < 10e6 || area > 14e6 {
		t.Fatalf("area = %g", area)
	}
}

func TestSpatialDifferenceUpdate(t *testing.T) {
	// The Scenario 2 idiom: replace a geometry by its difference with a
	// mask polygon.
	st := strabon.NewStore()
	st.Add(rdf.NewTriple(rdf.IRI(exNS+"h"), rdf.IRI(noaNS+"hasGeometry"),
		rdf.WKTLiteral("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", 4326)))
	e := New(st)
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		DELETE { ?h noa:hasGeometry ?g }
		INSERT { ?h noa:hasGeometry ?ng }
		WHERE {
			?h noa:hasGeometry ?g .
			BIND(strdf:difference(?g, "POLYGON ((2 -1, 5 -1, 5 5, 2 5, 2 -1))"^^strdf:WKT) AS ?ng)
		}`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?g WHERE { ?h noa:hasGeometry ?g }`)
	if len(got.Bindings) != 1 {
		t.Fatalf("geometries = %d", len(got.Bindings))
	}
	// The remaining geometry is the left half (area 8 in degrees^2).
	v := got.Bindings[0]["g"]
	if !v.IsSpatial() {
		t.Fatal("not spatial")
	}
}

func TestPeriodFilters(t *testing.T) {
	st := strabon.NewStore()
	add := func(s string, start, end string) {
		st.Add(rdf.NewTriple(rdf.IRI(exNS+s), rdf.IRI(noaNS+"validTime"),
			rdf.TypedLiteral("["+start+", "+end+")", "http://strdf.di.uoa.gr/ontology#period")))
	}
	add("morning", "2007-08-25T06:00:00Z", "2007-08-25T12:00:00Z")
	add("noon", "2007-08-25T11:00:00Z", "2007-08-25T13:00:00Z")
	add("evening", "2007-08-25T18:00:00Z", "2007-08-25T22:00:00Z")
	e := New(st)
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?x WHERE {
			?x noa:validTime ?t .
			FILTER(strdf:overlapsPeriod(?t, "[2007-08-25T11:30:00Z, 2007-08-25T11:45:00Z)"^^strdf:period))
		}`)
	if len(res.Bindings) != 2 {
		t.Fatalf("overlapping = %d", len(res.Bindings))
	}
	res2 := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?x WHERE {
			?x noa:validTime ?t .
			FILTER(strdf:during(?t, "[2007-08-25T00:00:00Z, 2007-08-26T00:00:00Z)"^^strdf:period))
		}`)
	if len(res2.Bindings) != 3 {
		t.Fatalf("during = %d", len(res2.Bindings))
	}
}

func TestOptimizerEquivalence(t *testing.T) {
	st := fixtureStore()
	q := `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h ?c WHERE {
			?h noa:hasConfidence ?c .
			?h a noa:Hotspot .
			?h noa:hasGeometry ?g .
		} ORDER BY ?h`
	opt := New(st)
	unopt := New(st)
	unopt.DisableOptimizer = true
	a := opt.MustQuery(q)
	b := unopt.MustQuery(q)
	if len(a.Bindings) != len(b.Bindings) {
		t.Fatalf("optimizer changes results: %d vs %d", len(a.Bindings), len(b.Bindings))
	}
	for i := range a.Bindings {
		if a.Bindings[i]["h"] != b.Bindings[i]["h"] {
			t.Fatal("optimizer changes order-normalised results")
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		``,
		`SELECT WHERE { ?s ?p ?o }`,
		`SELECT ?s { ?s ?p }`,               // incomplete triple
		`SELECT ?s WHERE { ?s ex:p ?o }`,    // unknown prefix
		`SELECT ?s WHERE { ?s ?p ?o`,        // unterminated group
		`INSERT DATA { ?v <p> <q> . }`,      // variable in ground data
		`SELECT ?s WHERE { "lit" ?p ?o . }`, // fine actually? literal subject is illegal in RDF but pattern-wise we allow... keep as error-free?
	} {
		if q == `SELECT ?s WHERE { "lit" ?p ?o . }` {
			continue // literal subjects parse; the store simply never matches
		}
		if _, err := ParseQuery(q); err == nil {
			t.Errorf("ParseQuery(%q) succeeded", q)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	e := New(fixtureStore())
	if _, err := e.Query(`SELECT ?s WHERE { ?s <p> ?o . FILTER(nosuchfunc(?o)) }`); err != nil {
		// Filters that always error simply drop rows; the query itself
		// succeeds with zero results.
		t.Fatalf("filter errors should not abort: %v", err)
	}
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?h WHERE { ?h a noa:Hotspot . FILTER(?h + 1 > 0) }`)
	if len(res.Bindings) != 0 {
		t.Fatal("type-error filter should drop all rows")
	}
}

func TestUnknownConstantsNoMatch(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`SELECT ?o WHERE { <http://nowhere/x> <http://nowhere/p> ?o }`)
	if len(res.Bindings) != 0 {
		t.Fatal("unknown constants should yield empty results")
	}
}

func TestSelectStar(t *testing.T) {
	e := New(fixtureStore())
	res := e.MustQuery(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT * WHERE { ?h noa:hasConfidence ?c }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
}

func TestSharedVariableJoin(t *testing.T) {
	// Same var in two positions of one pattern: ?x ?p ?x matches nothing
	// in the fixture; self-join sanity.
	e := New(fixtureStore())
	res := e.MustQuery(`SELECT ?x WHERE { ?x ?p ?x }`)
	if len(res.Bindings) != 0 {
		t.Fatalf("self-matching rows = %d", len(res.Bindings))
	}
}
