package stsparql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

func explainFixture() *strabon.Store {
	st := strabon.NewStore()
	// 2000 sites, one needle: the statistics must put the needle pattern
	// first even though it is written last.
	for i := 0; i < 2000; i++ {
		s := rdf.IRI("http://ex/site" + itoa(i))
		st.Add(rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Site")))
		st.Add(rdf.NewTriple(s, rdf.IRI("http://ex/name"), rdf.Literal("site-"+itoa(i))))
	}
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/site7"),
		rdf.IRI("http://ex/isNeedle"), rdf.BooleanLiteral(true)))
	return st
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func explainText(t *testing.T, eng *Engine, query string) string {
	t.Helper()
	res, err := eng.Query(query)
	if err != nil {
		t.Fatalf("EXPLAIN failed: %v", err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "plan" {
		t.Fatalf("EXPLAIN vars = %v, want [plan]", res.Vars)
	}
	var lines []string
	for _, b := range res.Bindings {
		lines = append(lines, b["plan"].Value)
	}
	return strings.Join(lines, "\n")
}

// TestExplainSelect checks the whole contract: estimated AND measured
// cardinalities appear, the statistics-backed order puts the selective
// needle pattern before the wide type scan, and the header reports the
// worker bound.
func TestExplainSelect(t *testing.T) {
	eng := New(explainFixture())
	eng.MaxParallelism = 3
	plan := explainText(t, eng, `EXPLAIN SELECT ?s WHERE {
		?s a <http://ex/Site> .
		?s <http://ex/isNeedle> ?flag .
	}`)
	if !strings.Contains(plan, "workers=3") {
		t.Errorf("plan missing workers bound:\n%s", plan)
	}
	if !strings.Contains(plan, "est=") || !strings.Contains(plan, "rows=") {
		t.Errorf("plan missing est/rows columns:\n%s", plan)
	}
	if !strings.Contains(plan, "order=statistics") {
		t.Errorf("plan missing planner mode:\n%s", plan)
	}
	// The needle scan (1 row) must be planned before the Site scan.
	needleAt := strings.Index(plan, "isNeedle")
	siteAt := strings.Index(plan, "http://ex/Site")
	if needleAt < 0 || siteAt < 0 || needleAt > siteAt {
		t.Errorf("needle pattern not ordered first:\n%s", plan)
	}
	// Measured cardinality of the join chain ends at 1 row.
	if !strings.Contains(plan, "rows=1") {
		t.Errorf("plan missing the measured 1-row result:\n%s", plan)
	}
}

// TestExplainEstimatesVsActuals: on an equality-selective probe the
// statistics make est match the measured rows exactly (count/distinctS
// of a functional property is 1 per subject).
func TestExplainEstimatesVsActuals(t *testing.T) {
	eng := New(explainFixture())
	plan := explainText(t, eng, `EXPLAIN SELECT ?s ?n WHERE {
		?s <http://ex/isNeedle> ?f .
		?s <http://ex/name> ?n .
	}`)
	// scan of isNeedle: est=1 rows=1; join on name: 2000/2000 distinct
	// subjects -> est=1 rows=1.
	for _, want := range []string{"est=1", "rows=1"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

// TestExplainForms covers ASK and CONSTRUCT explains plus the syntactic
// (optimizer-off) mode, and EXPLAIN on unions/optionals/filters.
func TestExplainForms(t *testing.T) {
	eng := New(explainFixture())
	ask := explainText(t, eng, `EXPLAIN ASK { ?s <http://ex/isNeedle> ?f }`)
	if !strings.Contains(ask, "ASK") {
		t.Errorf("ASK explain header wrong:\n%s", ask)
	}
	cons := explainText(t, eng, `EXPLAIN CONSTRUCT { ?s a <http://ex/Found> } WHERE { ?s <http://ex/isNeedle> ?f }`)
	if !strings.Contains(cons, "CONSTRUCT") {
		t.Errorf("CONSTRUCT explain header wrong:\n%s", cons)
	}
	rich := explainText(t, eng, `EXPLAIN SELECT ?s WHERE {
		{ ?s <http://ex/isNeedle> ?f } UNION { ?s <http://ex/name> "site-3" }
		OPTIONAL { ?s <http://ex/name> ?n }
		FILTER(BOUND(?s))
	}`)
	for _, want := range []string{"union", "optional", "filter", "alt 1", "alt 2"} {
		if !strings.Contains(rich, want) {
			t.Errorf("rich explain missing %q:\n%s", want, rich)
		}
	}
	eng.DisableOptimizer = true
	syn := explainText(t, eng, `EXPLAIN SELECT ?s WHERE { ?s a <http://ex/Site> . ?s <http://ex/isNeedle> ?f }`)
	if !strings.Contains(syn, "order=syntactic") {
		t.Errorf("optimizer-off explain missing order=syntactic:\n%s", syn)
	}
	// Syntactic order keeps the wide scan first.
	if siteAt, needleAt := strings.Index(syn, "http://ex/Site"), strings.Index(syn, "isNeedle"); siteAt > needleAt {
		t.Errorf("syntactic order not preserved:\n%s", syn)
	}
}

// planLine returns the index of the first plan line containing every
// fragment, or -1.
func planLine(lines []string, frags ...string) int {
	for i, ln := range lines {
		all := true
		for _, f := range frags {
			all = all && strings.Contains(ln, f)
		}
		if all {
			return i
		}
	}
	return -1
}

// TestExplainPlacesConjuncts: each conjunct of a FILTER runs right after
// the pattern that binds its last variable, with its own est= and rows=;
// a conjunct over a BIND variable stays after the BIND.
func TestExplainPlacesConjuncts(t *testing.T) {
	eng := New(explainFixture())
	plan := strings.Split(explainText(t, eng, `EXPLAIN SELECT ?s ?n WHERE {
		?s a <http://ex/Site> .
		?s <http://ex/name> ?n .
		BIND(?n AS ?m)
		FILTER(?s != <http://ex/site10> && STRSTARTS(?n, "site-1") && ?m != "site-12")
	}`), "\n")
	scan, join := planLine(plan, "scan"), planLine(plan, "join", "http://ex/name")
	onSubject := planLine(plan, "filter", "?s != ", "rows=1999")
	onName := planLine(plan, "filter", "strstarts", "rows=1110")
	bind := planLine(plan, "bind")
	onBind := planLine(plan, "filter", "?m != ", "rows=1109")
	if !(scan >= 0 && scan < onSubject && onSubject < join && join < onName && onName < bind && bind < onBind) {
		t.Fatalf("conjuncts not placed where their variables bind (scan %d, ?s filter %d, join %d, ?n filter %d, bind %d, ?m filter %d):\n%s",
			scan, onSubject, join, onName, bind, onBind, strings.Join(plan, "\n"))
	}
}

// TestExplainJoinOrderFollowsPlacedConjuncts pins the join order of the
// catalogue search's shape. After the sensor scan, the three joins each
// estimate one row per hotspot; the time join goes first because its two
// range conjuncts then run, the confidence join next (one conjunct), and
// the type join, written first, last. Without ORDER BY this order is
// the order of the rows.
func TestExplainJoinOrderFollowsPlacedConjuncts(t *testing.T) {
	st := strabon.NewStore()
	for i := 0; i < 300; i++ {
		h := rdf.IRI("http://ex/hot" + itoa(i))
		sensor := "A"
		if i%2 == 1 {
			sensor = "B"
		}
		st.Add(rdf.NewTriple(h, rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Hotspot")))
		st.Add(rdf.NewTriple(h, rdf.IRI("http://ex/inSensor"), rdf.Literal(sensor)))
		st.Add(rdf.NewTriple(h, rdf.IRI("http://ex/acquiredAt"),
			rdf.TypedLiteral(fmt.Sprintf("2012-08-03T%02d:%02d:00Z", i/60, i%60), rdf.XSDDateTime)))
		st.Add(rdf.NewTriple(h, rdf.IRI("http://ex/hasConfidence"), rdf.DoubleLiteral(float64(i%10)/10)))
	}
	plan := strings.Split(explainText(t, New(st), `EXPLAIN SELECT ?h ?t ?c WHERE {
		?h a <http://ex/Hotspot> .
		?h <http://ex/inSensor> "A" .
		?h <http://ex/acquiredAt> ?t .
		?h <http://ex/hasConfidence> ?c .
		FILTER(?t >= "2012-08-03T01:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> &&
			?t < "2012-08-03T03:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> && ?c > 0.45)
	}`), "\n")
	scan := planLine(plan, "scan", "inSensor")
	byTime := planLine(plan, "join", "acquiredAt")
	byConf := planLine(plan, "join", "hasConfidence")
	byType := planLine(plan, "join", "http://ex/Hotspot")
	if !(scan >= 0 && scan < byTime && byTime < byConf && byConf < byType) {
		t.Fatalf("want the sensor scan, then the time, confidence and type joins (got lines %d, %d, %d, %d):\n%s",
			scan, byTime, byConf, byType, strings.Join(plan, "\n"))
	}
}

// TestFilterAfterBindReassignment: a BIND that reassigns a pattern
// variable is what a later FILTER on it reads, so a conjunct naming it
// is never moved ahead of the BIND.
func TestFilterAfterBindReassignment(t *testing.T) {
	st := strabon.NewStore()
	for i, v := range []int64{5, 20} {
		st.Add(rdf.NewTriple(rdf.IRI("http://ex/s"+itoa(i)), rdf.IRI("http://ex/p0"), rdf.IntegerLiteral(v)))
	}
	eng := New(st)
	const q = `SELECT ?s ?v WHERE { ?s <http://ex/p0> ?v . BIND(?v + 10 AS ?v) FILTER(?v > 12 && ?v < 20) }`
	want := strings.Join(canonBindings(eng.mustOracleQuery(q)), "\n")
	if got := strings.Join(canonBindings(eng.MustQuery(q)), "\n"); got != want || !strings.Contains(got, "s0") {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// spatialJoinFixture: 200 sites on a 0.1° grid and 10 hotspots between
// grid points, each within 8 km of exactly four sites.
func spatialJoinFixture() *strabon.Store {
	st := strabon.NewStore()
	add := func(s, class string, x, y float64) {
		st.Add(rdf.NewTriple(rdf.IRI(s), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/"+class)))
		st.Add(rdf.NewTriple(rdf.IRI(s), rdf.IRI("http://ex/geom"),
			rdf.WKTLiteral(fmt.Sprintf("POINT (%.2f %.2f)", x, y), 4326)))
	}
	for i := 0; i < 200; i++ {
		add("http://ex/site"+itoa(i), "Site", 20+0.1*float64(i%20), 37+0.1*float64(i/20))
	}
	for i := 0; i < 10; i++ {
		add("http://ex/hot"+itoa(i), "Hotspot", 20.05+0.2*float64(i), 37.45)
	}
	return st
}

// TestExplainSpatialJoin: the distance join between the hotspots' and
// the sites' geometries is one spatial-join node over the site run,
// which executes once — its rows= count each site once — and returns
// the cross product's filtered rows in the same order.
func TestExplainSpatialJoin(t *testing.T) {
	st := spatialJoinFixture()
	const q = `PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?h ?s WHERE {
			?h a <http://ex/Hotspot> . ?h <http://ex/geom> ?hg .
			?s a <http://ex/Site> . ?s <http://ex/geom> ?sg .
			FILTER(strdf:distance(?hg, ?sg) < 8000)
		}`
	eng := New(st)
	plan := strings.Split(explainText(t, eng, "EXPLAIN "+q), "\n")
	join := planLine(plan, "spatial-join", "strdf:distance(?hg, ?sg)", "rows=40", "probes=10", "candidates=")
	if join < 0 || !strings.HasPrefix(plan[join], "  spatial-join") {
		t.Fatalf("no spatial-join node returning 40 rows from 10 probes:\n%s", strings.Join(plan, "\n"))
	}
	for _, frag := range []string{"?s a <http://ex/Site>", "?s <http://ex/geom> ?sg"} {
		i := planLine(plan, frag)
		if i <= join || !strings.HasPrefix(plan[i], "    ") || !strings.HasSuffix(plan[i], "rows=200") {
			t.Fatalf("inner %q not under the join with rows=200:\n%s", frag, strings.Join(plan, "\n"))
		}
	}
	if planLine(plan, "candidates=2000") >= 0 {
		t.Fatalf("every probe checked every site:\n%s", strings.Join(plan, "\n"))
	}

	off := New(st)
	off.DisableSpatialPushdown = true
	if offPlan := explainText(t, off, "EXPLAIN "+q); strings.Contains(offPlan, "spatial-join") {
		t.Fatalf("DisableSpatialPushdown planned a spatial join:\n%s", offPlan)
	}
	want, got := orderedBindings(off.MustQuery(q)), orderedBindings(eng.MustQuery(q))
	if len(got) != 40 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("spatial join returned\n%s\nwant the cross product's\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExplainUpdateRejected: EXPLAIN on updates is a parse error.
func TestExplainUpdateRejected(t *testing.T) {
	if _, err := ParseQuery(`EXPLAIN INSERT DATA { <http://ex/a> <http://ex/b> <http://ex/c> }`); err == nil {
		t.Fatal("EXPLAIN INSERT DATA parsed without error")
	}
	if _, err := ParseQuery(`EXPLAIN DELETE { ?s ?p ?o } INSERT { ?s ?p ?o } WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("EXPLAIN DELETE/INSERT parsed without error")
	}
}

// TestStatsOrderingBeatsBlindDiscount reproduces the planner scenario
// the fixed /8 discount got wrong: a bound-subject probe on a property
// held by EVERY subject (name) versus a narrow class scan. The
// statistics know name has 2000 distinct subjects (1 match per probe);
// the old heuristic scored it 2001/8 ≈ 250 and could mis-order.
func TestStatsOrderingBeatsBlindDiscount(t *testing.T) {
	st := explainFixture()
	pl := &planner{e: New(st), snap: st.Snapshot()}
	bound := map[string]bool{"s": true}
	perRow := pl.estimatePattern(Pattern{
		S: PatTerm{Var: "s"},
		P: PatTerm{Term: rdf.IRI("http://ex/name")},
		O: PatTerm{Var: "n"},
	}, bound, nil)
	if perRow > 1.5 {
		t.Fatalf("bound-subject probe on a functional property estimated %v matches/row, want ~1", perRow)
	}
	unboundScan := pl.estimatePattern(Pattern{
		S: PatTerm{Var: "x"},
		P: PatTerm{Term: rdf.IRI("http://ex/name")},
		O: PatTerm{Var: "y"},
	}, bound, nil)
	if unboundScan < 1999 {
		t.Fatalf("unbound scan estimated %v, want ~2000", unboundScan)
	}
}
