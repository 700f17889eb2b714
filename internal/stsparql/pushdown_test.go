package stsparql

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

// The spatial reads' edge cases over a folded base plus a delta: the
// window pushdown reads rows through the R-tree candidates' object
// posting lists, and the spatial join maps the view's candidates to its
// inner rows, so both must see exactly what the view holds — shared
// literals, literals that other predicates also use, rows removed or
// re-inserted since the fold, geometries only the delta holds, and
// geometries the base's R-tree still lists after their last triple went.

const edgePrefixes = "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\nPREFIX ex: <http://ex/>\n"

func edgeTriple(s, p, o string) rdf.Triple {
	obj := rdf.IRI("http://ex/" + o)
	if strings.HasPrefix(o, "POINT") || strings.HasPrefix(o, "POLYGON") || strings.HasSuffix(o, "EMPTY") {
		obj = rdf.WKTLiteral(o, 4326)
	}
	pred := rdf.IRI("http://ex/" + p)
	if p == "a" {
		pred = rdf.IRI(rdf.RDFType)
	}
	return rdf.NewTriple(rdf.IRI("http://ex/"+s), pred, obj)
}

// edgeStores returns the two views a case is read over: a store whose
// base was folded before the delta's writes ("base+delta", checked to
// hold a delta), and one built from the same final triples at once
// ("full build").
func edgeStores(t *testing.T, base, adds, removes []rdf.Triple) map[string]*strabon.Store {
	t.Helper()
	layered := strabon.NewStore()
	layered.AddAll(base)
	layered.Fold(0)
	for _, tr := range removes {
		if !layered.Remove(tr) {
			t.Fatalf("remove %v: not in the store", tr)
		}
	}
	layered.AddAll(adds)
	layered.Snapshot()
	if layered.ViewCounters().DeltaRows == 0 {
		t.Fatal("the writes folded: the view has no delta")
	}
	full := strabon.NewStore()
	full.AddAll(layered.Triples())
	return map[string]*strabon.Store{"base+delta": layered, "full build": full}
}

// joinProbes runs f under each of the spatial join's two ways of finding
// an outer row's candidates: scanning the inner run's envelopes, as the
// join does for inner runs of up to joinScanMaxRows rows, and probing
// the view's R-tree, as it does for longer ones.
func joinProbes(f func(probe string)) {
	defer func(prev int) { joinScanMaxRows = prev }(joinScanMaxRows)
	for _, p := range []struct {
		name string
		max  int
	}{{"inner scan", math.MaxInt}, {"view R-tree", -1}} {
		joinScanMaxRows = p.max
		f(p.name)
	}
}

// edgeWindow is a window read of ex:geom within the box [x0,x1]×[y0,y1].
func edgeWindow(body string, x0, y0, x1, y1 string) string {
	return edgePrefixes + "SELECT * WHERE { " + body + " FILTER(strdf:intersects(?g, \"POLYGON ((" +
		x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 +
		"))\"^^strdf:WKT)) }"
}

// TestSpatialPushdownByPostings checks named window reads against the
// oracle row for row, order included, at one worker and at four, over a
// folded base plus a delta and over a full build of the same triples.
func TestSpatialPushdownByPostings(t *testing.T) {
	forceTinyMorsels(t)
	base := []rdf.Triple{
		edgeTriple("s1", "geom", "POINT (20 38)"), // one literal, two subjects
		edgeTriple("s2", "geom", "POINT (20 38)"),
		edgeTriple("s3", "geom", "POINT (20.1 38.1)"), // a literal another predicate also uses
		edgeTriple("s3b", "alt", "POINT (20.1 38.1)"),
		edgeTriple("s4", "geom", "POINT (20.2 38.2)"), // removed after the fold; s4b keeps the literal
		edgeTriple("s4b", "geom", "POINT (20.2 38.2)"),
		edgeTriple("s5", "geom", "POINT (20.3 38.3)"), // removed, then re-inserted into the delta
		edgeTriple("s6", "geom", "POINT (20.4 38.4)"), // its last triple removed: stale in the base R-tree
		edgeTriple("s9", "geom", "POINT (30 30)"),     // outside every window
		edgeTriple("s10", "geom", "POINT EMPTY"),      // in no window; its envelope is empty, not NaN
	}
	for _, s := range []string{"s1", "s2", "s3", "s3b", "s4", "s4b", "s5", "s6", "s7", "s9"} {
		base = append(base, edgeTriple(s, "a", "Thing"))
	}
	removes := []rdf.Triple{base[4], base[6], base[7]}
	adds := []rdf.Triple{
		base[6],
		edgeTriple("s7", "geom", "POINT (20.5 38.5)"), // a geometry only the delta holds
		edgeTriple("s8", "geom", "POINT (20 38)"),     // a delta row on a base literal
		edgeTriple("s1", "alt", "POINT (20.1 38.1)"),
	}
	const thing = "?s a ex:Thing . "
	cases := []struct {
		name string
		q    string
		rows int // the answer's size, so a case cannot pass on an empty read
	}{
		{"shared literal", edgeWindow("?s <http://ex/geom> ?g .", "19.95", "37.95", "20.05", "38.05"), 3},
		{"second predicate dropped", edgeWindow("?s <http://ex/geom> ?g .", "20.05", "38.05", "20.15", "38.15"), 1},
		{"second predicate kept by ?p", edgeWindow("?s ?p ?g .", "20.05", "38.05", "20.15", "38.15"), 3},
		{"removed base row", edgeWindow("?s <http://ex/geom> ?g .", "20.15", "38.15", "20.25", "38.25"), 1},
		{"re-inserted row", edgeWindow("?s <http://ex/geom> ?g .", "20.25", "38.25", "20.35", "38.35"), 1},
		{"stale geometry", edgeWindow("?s <http://ex/geom> ?g .", "20.35", "38.35", "20.45", "38.45"), 0},
		{"delta-only geometry", edgeWindow("?s <http://ex/geom> ?g .", "20.45", "38.45", "20.55", "38.55"), 1},
		{"whole window, typed", edgeWindow(thing+"?s <http://ex/geom> ?g .", "19", "37", "21", "39"), 6},
		{"constant subject", edgeWindow("<http://ex/s4b> <http://ex/geom> ?g .", "19", "37", "21", "39"), 1},
		// The first OPTIONAL binds ?g in some rows only, so the second's
		// pattern meets ?g mixed and probes row by row.
		{"optional then window", edgePrefixes + "SELECT * WHERE { " + thing +
			"OPTIONAL { ?s <http://ex/alt> ?g } OPTIONAL { ?s <http://ex/geom> ?g . " +
			"FILTER(strdf:intersects(?g, \"POLYGON ((19.95 37.95, 20.45 37.95, 20.45 38.45, 19.95 38.45, 19.95 37.95))\"^^strdf:WKT)) } }", 10},
	}
	for leg, st := range edgeStores(t, base, adds, removes) {
		for _, workers := range []int{1, 4} {
			e := New(st)
			e.MaxParallelism = workers
			for _, c := range cases {
				want, err := e.oracleQuery(context.Background(), c.q)
				if err != nil {
					t.Fatalf("%s: oracle: %v", c.name, err)
				}
				got, err := e.Query(c.q)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				w, g := strings.Join(orderedBindings(want), "\n"), strings.Join(orderedBindings(got), "\n")
				if w != g {
					t.Errorf("%s, workers=%d, %s: executor returned\n%s\nwant (oracle)\n%s", leg, workers, c.name, g, w)
				}
				if len(got.Bindings) != c.rows {
					t.Errorf("%s, workers=%d, %s: %d rows, want %d", leg, workers, c.name, len(got.Bindings), c.rows)
				}
			}
		}
	}
}

// TestSpatialJoinEdgeCases checks named spatial joins against the same
// queries with spatial pushdown off (a cross product and a filter), row
// for row, at one worker and at four, over a folded base plus a delta
// and over a full build: sites sharing one point literal, sites whose
// geometries exist only in the delta, a site geometry removed after the
// fold (still listed by the base's R-tree) and one re-inserted, and
// empty geometries, which no probe box meets.
func TestSpatialJoinEdgeCases(t *testing.T) {
	forceTinyMorsels(t)
	base := []rdf.Triple{
		edgeTriple("h1", "geom", "POLYGON ((20 38, 20.02 38, 20.02 38.02, 20 38.02, 20 38))"),
		edgeTriple("h2", "geom", "POLYGON ((20.1 38.1, 20.12 38.1, 20.12 38.12, 20.1 38.12, 20.1 38.1))"),
		edgeTriple("h3", "geom", "POINT EMPTY"),
		edgeTriple("siteA", "geom", "POINT (20.01 38.01)"), // siteA and siteB share one literal
		edgeTriple("siteB", "geom", "POINT (20.01 38.01)"),
		edgeTriple("siteR", "geom", "POINT (20.03 38.01)"),  // removed after the fold
		edgeTriple("siteRe", "geom", "POINT (20.11 38.11)"), // removed, then re-inserted
		edgeTriple("siteE", "geom", "POINT EMPTY"),
		edgeTriple("siteF", "geom", "POINT (25 39)"),
		edgeTriple("siteG", "geom", "POINT (20.13 38.1)"),
		edgeTriple("siteH", "geom", "POINT (20.5 38.5)"),
	}
	for _, h := range []string{"h1", "h2", "h3"} {
		base = append(base, edgeTriple(h, "a", "Hotspot"))
	}
	for _, s := range []string{"siteA", "siteB", "siteR", "siteRe", "siteE", "siteF", "siteG", "siteH", "siteD1", "siteD2"} {
		base = append(base, edgeTriple(s, "a", "Site"))
	}
	removes := []rdf.Triple{base[5], base[6]}
	adds := []rdf.Triple{
		base[6],
		edgeTriple("siteD1", "geom", "POINT (20.015 38.005)"), // geometries only the delta holds
		edgeTriple("siteD2", "geom", "POINT (20.105 38.13)"),
	}
	join := func(filter string) string {
		return edgePrefixes + "SELECT ?h ?s WHERE { ?h a ex:Hotspot . ?h <http://ex/geom> ?hg . " +
			"?s a ex:Site . ?s <http://ex/geom> ?sg . FILTER(" + filter + ") }"
	}
	cases := []struct {
		name, q string
		rows    int
	}{
		{"distance", join("strdf:distance(?hg, ?sg) < 3000"), 6},
		{"distance, sites first", strings.Replace(join("strdf:distance(?sg, ?hg) < 3000"), "?h ?s", "?s ?h", 1), 6},
		{"intersects", join("strdf:intersects(?hg, ?sg)"), 4},
		{"equals (empty geometries)", join("strdf:equals(?hg, ?sg)"), 1},
	}
	stores := edgeStores(t, base, adds, removes)
	joinProbes(func(probe string) {
		for leg, st := range stores {
			for _, workers := range []int{1, 4} {
				on, off := New(st), New(st)
				on.MaxParallelism, off.MaxParallelism = workers, workers
				off.DisableSpatialPushdown = true
				for _, c := range cases {
					if plan := explainText(t, on, "EXPLAIN "+c.q); !strings.Contains(plan, "spatial-join") {
						t.Fatalf("%s did not plan as a spatial join:\n%s", c.name, plan)
					}
					want, err := off.Query(c.q)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					got, err := on.Query(c.q)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					w, g := strings.Join(orderedBindings(want), "\n"), strings.Join(orderedBindings(got), "\n")
					if w != g {
						t.Errorf("%s, %s, workers=%d, %s: pushdown on returned\n%s\nwant (pushdown off)\n%s", probe, leg, workers, c.name, g, w)
					}
					if len(got.Bindings) != c.rows {
						t.Errorf("%s, %s, workers=%d, %s: %d rows, want %d\n%s", probe, leg, workers, c.name, len(got.Bindings), c.rows, g)
					}
				}
			}
		}
	})
}

// TestDistanceJoinAcrossAntimeridian: a probe at 179.99°E finds the site
// 2.2 km away at 179.99°W through the spatial join, as it does with the
// join off, and not the one 0.5° further west.
func TestDistanceJoinAcrossAntimeridian(t *testing.T) {
	st := strabon.NewStore()
	st.AddAll([]rdf.Triple{
		edgeTriple("probe", "geom", "POINT (179.99 10)"), edgeTriple("probe", "a", "Probe"),
		edgeTriple("across", "geom", "POINT (-179.99 10)"), edgeTriple("across", "a", "Site"),
		edgeTriple("beside", "geom", "POINT (179.98 10)"), edgeTriple("beside", "a", "Site"),
		edgeTriple("far", "geom", "POINT (-179.5 10)"), edgeTriple("far", "a", "Site"),
	})
	q := edgePrefixes + "SELECT ?s WHERE { ?p a ex:Probe . ?p <http://ex/geom> ?pg . " +
		"?s a ex:Site . ?s <http://ex/geom> ?g . FILTER(strdf:distance(?pg, ?g) < 3000) }"
	joinProbes(func(probe string) {
		for _, push := range []bool{true, false} {
			e := New(st)
			e.DisableSpatialPushdown = !push
			if push {
				if plan := explainText(t, e, "EXPLAIN "+q); !strings.Contains(plan, "spatial-join") {
					t.Fatalf("the probe × site distance did not plan as a spatial join:\n%s", plan)
				}
			}
			var got []string
			for _, b := range e.MustQuery(q).Bindings {
				got = append(got, strings.TrimPrefix(b["s"].Value, "http://ex/"))
			}
			if strings.Join(got, " ") != "across beside" {
				t.Errorf("%s, pushdown=%v: sites %v, want [across beside]", probe, push, got)
			}
		}
	})
}

// TestOutOfRangeLongitude: a stored POINT (185 10) is not a geometry
// (strdf rejects WGS84 longitudes past ±180°), so neither the spatial
// join nor the unpushed filter finds it 0 m from a probe at (-175 10),
// which no probe box around the probe would reach; an in-range site
// beside the probe is found both ways, and a window does not return it.
func TestOutOfRangeLongitude(t *testing.T) {
	st := strabon.NewStore()
	st.AddAll([]rdf.Triple{
		edgeTriple("probe", "geom", "POINT (-175 10)"), edgeTriple("probe", "a", "Probe"),
		edgeTriple("wrapped", "geom", "POINT (185 10)"), edgeTriple("wrapped", "a", "Site"),
		edgeTriple("beside", "geom", "POINT (-175.01 10)"), edgeTriple("beside", "a", "Site"),
	})
	join := edgePrefixes + "SELECT ?s WHERE { ?p a ex:Probe . ?p <http://ex/geom> ?pg . " +
		"?s a ex:Site . ?s <http://ex/geom> ?g . FILTER(strdf:distance(?pg, ?g) < 3000) }"
	window := edgeWindow("?s a ex:Site . ?s <http://ex/geom> ?g .", "-175.1", "9.9", "-174.9", "10.1")
	joinProbes(func(probe string) {
		for _, push := range []bool{true, false} {
			e := New(st)
			e.DisableSpatialPushdown = !push
			for _, q := range []string{join, window} {
				var got []string
				for _, b := range e.MustQuery(q).Bindings {
					got = append(got, strings.TrimPrefix(b["s"].Value, "http://ex/"))
				}
				if strings.Join(got, " ") != "beside" {
					t.Errorf("%s, pushdown=%v: sites %v, want [beside]\n%s", probe, push, got, q)
				}
			}
		}
	})
}
