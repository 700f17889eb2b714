package teleios

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// TestArchitectureTiers is the F2 integration test: one request crossing
// all four tiers — ingestion (vault + content extraction), database
// (SciQL + Strabon), service processing (chain + refinement + fire map)
// and the application facade.
func TestArchitectureTiers(t *testing.T) {
	dir := t.TempDir()
	ids, err := GenerateArchive(dir, 96, 96, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("archive = %d frames", len(ids))
	}
	obs := Open(Options{LoadLinkedData: true})
	if err := obs.AttachRepository(dir); err != nil {
		t.Fatal(err)
	}
	if got := obs.Products(); len(got) != 6 {
		t.Fatalf("products = %d", len(got))
	}

	// Database tier: the catalogue is queryable with SciQL.
	cat := obs.Catalog()
	if cat.NumRows() != 6 {
		t.Fatalf("catalog rows = %d", cat.NumRows())
	}
	res, err := obs.SciQL(`SELECT count(*) AS n FROM catalog WHERE sensor = 'SEVIRI'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Col("n").Int(0) != 6 {
		t.Fatal("SciQL catalog query")
	}

	// Ingestion tier: arrays + metadata.
	f, err := obs.Ingest(ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != ids[5] {
		t.Fatal("ingest frame")
	}
	bandQuery := fmt.Sprintf(`SELECT max(v) AS m FROM %s_IR_039`, ArrayPrefix(ids[5]))
	resBand, err := obs.SciQL(bandQuery)
	if err != nil {
		t.Fatal(err)
	}
	if resBand.Table.Col("m").Float(0) < 300 {
		t.Fatal("band array content")
	}
	// Metadata landed in Strabon.
	meta, err := obs.StSPARQL(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?p WHERE { ?p a noa:Product }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Bindings) != 1 {
		t.Fatalf("products in store = %d", len(meta.Bindings))
	}

	// Service tier: chain, refinement, fire map.
	p, err := obs.RunChain(ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hotspots) == 0 {
		t.Fatal("no hotspots")
	}
	stats, err := obs.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != len(p.Hotspots) {
		t.Fatalf("refine total = %d", stats.Total)
	}
	m, err := obs.FireMap(30000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layer("hotspots")) == 0 {
		t.Fatal("fire map empty")
	}
	var buf bytes.Buffer
	if err := m.WriteGeoJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FeatureCollection") {
		t.Fatal("GeoJSON output")
	}
	// Shapefile output.
	var shp bytes.Buffer
	if err := obs.WriteShapefile(&shp, p); err != nil {
		t.Fatal(err)
	}
	if shp.Len() < 100 {
		t.Fatal("shapefile too small")
	}

	// Knowledge tier: annotation.
	n, err := obs.Annotate(ids[5], 16)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no annotations")
	}
	annres, err := obs.StSPARQL(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT (COUNT(*) AS ?n) WHERE { ?p noa:hasAnnotation ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if annres.Bindings[0]["n"].Value == "0" {
		t.Fatal("annotations not stored")
	}

	// Lazy vault: only the frames we touched were decoded.
	s := obs.Stats()
	if s.Vault.Loads > 2 {
		t.Fatalf("vault loads = %d, expected lazy decoding", s.Vault.Loads)
	}
	if s.Store.Triples == 0 || s.Store.SpatialLiterals == 0 {
		t.Fatalf("store stats = %+v", s.Store)
	}
}

// TestFlagshipQuery reproduces the paper's Section 1 information request:
// "Find an image taken by a Meteosat second generation satellite on
// 25 August 2007 which covers the area of the Peloponnese and contains
// hotspots corresponding to forest fires located within 2 km from a major
// archaeological site."
func TestFlagshipQuery(t *testing.T) {
	dir := t.TempDir()
	ids, err := GenerateArchive(dir, 128, 128, 6)
	if err != nil {
		t.Fatal(err)
	}
	obs := Open(Options{LoadLinkedData: true})
	if err := obs.AttachRepository(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Ingest(ids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.RunChain(ids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.Refine(); err != nil {
		t.Fatal(err)
	}
	res, err := obs.StSPARQL(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		PREFIX gn: <http://sws.geonames.org/teleios/>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT DISTINCT ?img ?site WHERE {
			?img a noa:Product .
			?img noa:satellite "Meteosat-9" .
			?img noa:coverage ?cov .
			?h a mon:Hotspot .
			?h noa:derivedFromProduct ?img .
			?h noa:hasGeometry ?hg .
			?site a gn:ArchaeologicalSite .
			?site noa:hasGeometry ?sg .
			FILTER(strdf:distance(?hg, ?sg) < 2000)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings) == 0 {
		t.Fatal("flagship query found nothing; the Olympia fire is seeded 1.5 km from the Olympia site")
	}
	foundOlympia := false
	for _, b := range res.Bindings {
		if strings.Contains(b["site"].Value, "Olympia") {
			foundOlympia = true
		}
	}
	if !foundOlympia {
		t.Fatalf("expected the Olympia site, got %v", res.Bindings)
	}
}

func TestOntologyAccessor(t *testing.T) {
	obs := Open(Options{})
	lc, mon := obs.Ontologies()
	if lc == nil || mon == nil {
		t.Fatal("ontologies")
	}
	found := false
	for _, tr := range lc.Triples() {
		found = found || tr.S.Value == "http://teleios.di.uoa.gr/landcover#Lake" &&
			tr.P.Value == rdf.RDFSSubClassOf && tr.O.Value == "http://teleios.di.uoa.gr/landcover#WaterBody"
	}
	if !found {
		t.Fatal("land cover taxonomy: no Lake rdfs:subClassOf WaterBody")
	}
}

// TestStorePersistence round-trips the observatory's knowledge base
// through SaveStore/LoadStore: products, hotspots and linked data survive,
// and spatial queries still answer after the reload.
func TestStorePersistence(t *testing.T) {
	archive := t.TempDir()
	ids, err := GenerateArchive(archive, 96, 96, 6)
	if err != nil {
		t.Fatal(err)
	}
	obs := Open(Options{LoadLinkedData: true})
	if err := obs.AttachRepository(archive); err != nil {
		t.Fatal(err)
	}
	p, err := obs.RunChain(ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	if err := obs.SaveStore(storeDir); err != nil {
		t.Fatal(err)
	}

	// A fresh observatory loads the saved knowledge base.
	obs2 := Open(Options{})
	if err := obs2.LoadStore(storeDir); err != nil {
		t.Fatal(err)
	}
	res, err := obs2.StSPARQL(`
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		SELECT (COUNT(*) AS ?n) WHERE { ?h a mon:Hotspot }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bindings[0]["n"].Value != fmt.Sprintf("%d", len(p.Hotspots)) {
		t.Fatalf("hotspots after reload = %v, want %d", res.Bindings[0]["n"], len(p.Hotspots))
	}
	// Spatial index was rebuilt: the refinement still works.
	if _, err := obs2.Refine(); err != nil {
		t.Fatal(err)
	}
	if err := obs2.LoadStore(t.TempDir()); err == nil {
		t.Fatal("loading an empty dir should error")
	}
}

func TestChainSwap(t *testing.T) {
	obs := Open(Options{})
	c := obs.Chain()
	c.Classifier.AbsoluteK = 400 // impossible threshold
	obs.SetChain(c)
	if obs.Chain().Classifier.AbsoluteK != 400 {
		t.Fatal("chain not swapped")
	}
}
