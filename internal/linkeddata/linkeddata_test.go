package linkeddata

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/strabon"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

func TestGeoNames(t *testing.T) {
	triples := GeoNames()
	sites := len(scene.ArchaeologicalSites())
	towns := len(scene.Towns())
	// 3 triples per site, 4 per town.
	if len(triples) != sites*3+towns*4 {
		t.Fatalf("triples = %d", len(triples))
	}
	// Every geometry literal decodes.
	for _, tr := range triples {
		if tr.P.Value == PropGeometry {
			if _, err := strdf.ParseSpatial(tr.O); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCoastlineConsistentWithScene(t *testing.T) {
	triples := Coastline()
	var sea, land geo.Geometry
	for _, tr := range triples {
		if tr.P.Value != PropGeometry {
			continue
		}
		v, err := strdf.ParseSpatial(tr.O)
		if err != nil {
			t.Fatal(err)
		}
		switch tr.S.Value {
		case CoastNS + "sea":
			sea = v.Geom
		case CoastNS + "landmass":
			land = v.Geom
		}
	}
	if sea == nil || land == nil {
		t.Fatal("sea or landmass missing")
	}
	// A point on land is in landmass and not in the sea interior.
	p := geo.Point{X: 24, Y: 38}
	if !geo.Intersects(p, land) {
		t.Fatal("centre should be on land")
	}
	if geo.Within(p, sea) {
		t.Fatal("centre should not be in the sea")
	}
	// A far corner is sea.
	q := geo.Point{X: 26.8, Y: 36.2}
	if !geo.Intersects(q, sea) {
		t.Fatal("corner should be sea")
	}
}

func TestAllLoadsIntoStrabon(t *testing.T) {
	st := strabon.NewStore()
	n := st.AddAll(All())
	if n == 0 {
		t.Fatal("nothing loaded")
	}
	if st.Len() != n {
		t.Fatal("duplicate triples in All()")
	}
	// The data answers a realistic query: towns with population > 20000.
	eng := stsparql.New(st)
	res := eng.MustQuery(`
		PREFIX gn: <http://sws.geonames.org/teleios/>
		SELECT ?t ?p WHERE {
			?t a gn:PopulatedPlace .
			?t gn:population ?p .
			FILTER(?p > 20000)
		}`)
	if len(res.Bindings) != 5 {
		t.Fatalf("big towns = %d", len(res.Bindings))
	}
	// Ontology subsumption data is present.
	ask := eng.MustQuery(`
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		PREFIX lc: <http://teleios.di.uoa.gr/landcover#>
		ASK WHERE { lc:Lake rdfs:subClassOf lc:WaterBody }`)
	if !ask.Bool {
		t.Fatal("land-cover ontology missing")
	}
}

func TestSyntheticSites(t *testing.T) {
	triples := SyntheticSites(50)
	if len(triples) != 150 {
		t.Fatalf("triples = %d (want 50 sites x 3)", len(triples))
	}
	// All on land.
	land := scene.Landmass()
	for _, tr := range triples {
		if tr.P.Value != PropGeometry {
			continue
		}
		v, err := strdf.ParseSpatial(tr.O)
		if err != nil {
			t.Fatal(err)
		}
		if !geo.Intersects(v.Geom, land) {
			t.Errorf("synthetic site off land: %v", v.Geom)
		}
	}
	// Deterministic.
	again := SyntheticSites(50)
	for i := range triples {
		if triples[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Zero sites.
	if len(SyntheticSites(0)) != 0 {
		t.Fatal("zero request")
	}
}

func TestCorineTypedWithOntology(t *testing.T) {
	for _, tr := range Corine() {
		if tr.P.Value == rdf.RDFType && tr.O.Value != "http://teleios.di.uoa.gr/landcover#Forest" {
			t.Fatalf("type = %v", tr.O)
		}
	}
}

func TestLinkedGeoDataRoads(t *testing.T) {
	triples := LinkedGeoData()
	if len(triples) != len(scene.Roads())*3 {
		t.Fatalf("triples = %d", len(triples))
	}
	for _, tr := range triples {
		if tr.P.Value == PropGeometry {
			v, err := strdf.ParseSpatial(tr.O)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := v.Geom.(geo.LineString); !ok {
				t.Fatalf("road geometry type %T", v.Geom)
			}
		}
	}
}
