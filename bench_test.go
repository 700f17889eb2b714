package teleios

// The benchmark harness regenerates every experiment in DESIGN.md §4.
// The paper (a demo paper) publishes no measured tables; these benchmarks
// reproduce its three figures as executable artefacts, its two demo
// scenarios as measured runs, the Section 1 flagship query, and three
// ablations of the design choices DESIGN.md calls out. EXPERIMENTS.md
// records the measured numbers and the expected shapes.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/kdd"
	"repro/internal/linkeddata"
	"repro/internal/noa"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/strabon"
	"repro/internal/strdf"
	"repro/internal/stsparql"
	"repro/internal/vault"
)

// frameCache shares generated frames across benchmarks (generation cost
// must not pollute the measurements).
var (
	frameMu    sync.Mutex
	frameCache = map[string][]*raster.Frame{}
)

func cachedFrames(width, steps int) []*raster.Frame {
	frameMu.Lock()
	defer frameMu.Unlock()
	key := fmt.Sprintf("%dx%d", width, steps)
	if fs, ok := frameCache[key]; ok {
		return fs
	}
	fs := raster.Generate(raster.GenOptions{Width: width, Height: width, Steps: steps})
	frameCache[key] = fs
	return fs
}

// F1 — Figure 1, the concept pipeline: raw data -> content extraction ->
// knowledge discovery -> semantic annotation -> linked data store.
func BenchmarkFigure1Pipeline(b *testing.B) {
	f := cachedFrames(128, 6)[5]
	model := kdd.TrainLandCoverModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := f.Band(raster.BandIR39)
		if err != nil {
			b.Fatal(err)
		}
		anns, err := kdd.AnnotatePatches("http://ex/p", img, f.GeoRef, 16, model, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		st := strabon.NewStore()
		st.AddAll(ingest.ExtractMetadata(f))
		for k, a := range anns {
			st.AddAll(a.Triples(k))
		}
		if st.Len() == 0 {
			b.Fatal("empty store")
		}
		b.ReportMetric(float64(len(anns)), "annotations")
	}
}

// F2 — Figure 2, an end-to-end request across all four tiers: chain ->
// store -> refinement -> fire map.
func BenchmarkFigure2EndToEnd(b *testing.B) {
	f := cachedFrames(128, 6)[5]
	chain := noa.DefaultChain(scene.Region)
	aux := linkeddata.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := chain.Run(f)
		if err != nil {
			b.Fatal(err)
		}
		eng := stsparql.New(strabon.NewStore())
		noa.StoreProduct(eng, p)
		eng.Store().AddAll(aux)
		if _, err := noa.Refine(eng); err != nil {
			b.Fatal(err)
		}
		m, err := noa.BuildFireMap(eng, 30000)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Features) == 0 {
			b.Fatal("empty map")
		}
	}
}

// F3 — Figure 3, the Earth Observatory GUI's catalogue search: a mixed
// metadata + spatial query over catalogues of growing size.
func BenchmarkFigure3CatalogueSearch(b *testing.B) {
	for _, nProducts := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("products=%d", nProducts), func(b *testing.B) {
			st := strabon.NewStore()
			frames := cachedFrames(32, 1)
			for i := 0; i < nProducts; i++ {
				f := *frames[0]
				f.ID = fmt.Sprintf("MSG2-SYN-%04d", i)
				f.Time = f.Time.Add(time.Duration(i) * 15 * time.Minute)
				st.AddAll(ingest.ExtractMetadata(&f))
			}
			eng := stsparql.New(st)
			query := `
				PREFIX noa: <http://teleios.di.uoa.gr/noa#>
				PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
				SELECT ?img ?t WHERE {
					?img a noa:Product .
					?img noa:satellite "Meteosat-9" .
					?img noa:acquiredAt ?t .
					?img noa:coverage ?cov .
					FILTER(strdf:intersects(?cov, "POLYGON ((22 37, 25 37, 25 39, 22 39, 22 37))"^^strdf:WKT))
				} ORDER BY ?t LIMIT 20`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// S1 — Scenario 1, the NOA processing chain per grid size; per-stage
// timings are reported as metrics.
func BenchmarkScenario1Chain(b *testing.B) {
	for _, size := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("grid=%d", size), func(b *testing.B) {
			f := cachedFrames(size, 6)[5]
			chain := noa.DefaultChain(scene.Region)
			var nHot int
			stages := map[string]float64{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := chain.Run(f)
				if err != nil {
					b.Fatal(err)
				}
				nHot = len(p.Hotspots)
				for s, d := range p.Timings {
					stages[s] += d.Seconds()
				}
			}
			b.ReportMetric(float64(nHot), "hotspots")
			for s, total := range stages {
				b.ReportMetric(total/float64(b.N)*1e3, s+"-ms")
			}
		})
	}
}

// S2 — Scenario 2, the thematic refinement: runtime plus the accuracy
// deltas (false positives removed, real fires kept).
func BenchmarkScenario2Refinement(b *testing.B) {
	f := cachedFrames(128, 6)[5]
	chain := noa.DefaultChain(scene.Region)
	p, err := chain.Run(f)
	if err != nil {
		b.Fatal(err)
	}
	aux := linkeddata.All()
	land := scene.Landmass()
	b.ResetTimer()
	var rejected, clipped, fpBefore, fpAfter int
	for i := 0; i < b.N; i++ {
		eng := stsparql.New(strabon.NewStore())
		noa.StoreProduct(eng, p)
		eng.Store().AddAll(aux)
		fpBefore = countSeaHotspots(b, eng, land)
		stats, err := noa.Refine(eng)
		if err != nil {
			b.Fatal(err)
		}
		rejected, clipped = stats.Rejected, stats.Clipped
		fpAfter = countSeaHotspots(b, eng, land)
	}
	b.ReportMetric(float64(rejected), "rejected")
	b.ReportMetric(float64(clipped), "clipped")
	b.ReportMetric(float64(fpBefore), "sea-fp-before")
	b.ReportMetric(float64(fpAfter), "sea-fp-after")
}

func countSeaHotspots(b *testing.B, eng *stsparql.Engine, land geo.Geometry) int {
	b.Helper()
	res, err := eng.Query(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		SELECT ?g WHERE { ?h a mon:Hotspot . ?h noa:hasGeometry ?g }`)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, row := range res.Bindings {
		v, err := strdf.ParseSpatial(row["g"])
		if err != nil {
			continue
		}
		if geo.Disjoint(v.Geom, land) {
			n++
		}
	}
	return n
}

// Q1 — the Section 1 flagship query, sweeping the number of
// archaeological sites joined against.
func BenchmarkFlagshipQuery(b *testing.B) {
	for _, nSites := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("sites=%d", nSites), func(b *testing.B) {
			eng := flagshipFixture(b, nSites)
			query := flagshipQueryText()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) == 0 {
					b.Fatal("flagship query found nothing")
				}
			}
		})
	}
}

func flagshipFixture(b *testing.B, nSites int) *stsparql.Engine {
	b.Helper()
	f := cachedFrames(128, 6)[5]
	chain := noa.DefaultChain(scene.Region)
	p, err := chain.Run(f)
	if err != nil {
		b.Fatal(err)
	}
	st := strabon.NewStore()
	eng := stsparql.New(st)
	noa.StoreProduct(eng, p)
	st.AddAll(ingest.ExtractMetadata(f))
	st.AddAll(linkeddata.All())
	st.AddAll(linkeddata.SyntheticSites(nSites))
	return eng
}

func flagshipQueryText() string {
	return `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		PREFIX gn: <http://sws.geonames.org/teleios/>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT DISTINCT ?img ?site WHERE {
			?img a noa:Product .
			?h a mon:Hotspot .
			?h noa:derivedFromProduct ?img .
			?h noa:hasGeometry ?hg .
			?site a gn:ArchaeologicalSite .
			?site noa:hasGeometry ?sg .
			FILTER(strdf:distance(?hg, ?sg) < 2000)
		}`
}

// Q2 — the morsel-parallelism cores ablation: multi-pattern queries
// (the flagship hotspot×site join with its distance filter, and a wide
// catalogue search with a spatial filter) at a per-query worker bound of
// 1, 2, 4 and GOMAXPROCS. The shared slot-budget pool still caps real
// concurrency at GOMAXPROCS-1 extra goroutines, so the >1 worker runs
// only beat serial on multi-core hardware.
func BenchmarkParallelQueryAblation(b *testing.B) {
	workerSet := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		workerSet = append(workerSet, n)
	}
	flagship := flagshipFixture(b, 2000)
	flagshipQ := flagshipQueryText()
	for _, workers := range workerSet {
		b.Run(fmt.Sprintf("flagship/workers=%d", workers), func(b *testing.B) {
			flagship.MaxParallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := flagship.Query(flagshipQ)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
	flagship.MaxParallelism = 0

	// Catalogue search over a product archive large enough that the
	// filter and join stages exceed the morsel thresholds.
	st := strabon.NewStore()
	frames := cachedFrames(32, 1)
	for i := 0; i < 1024; i++ {
		f := *frames[0]
		f.ID = fmt.Sprintf("MSG2-SYN-%04d", i)
		f.Time = f.Time.Add(time.Duration(i) * 15 * time.Minute)
		st.AddAll(ingest.ExtractMetadata(&f))
	}
	catalogue := stsparql.New(st)
	catalogueQ := `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?img ?t WHERE {
			?img a noa:Product .
			?img noa:satellite "Meteosat-9" .
			?img noa:acquiredAt ?t .
			?img noa:coverage ?cov .
			FILTER(strdf:intersects(?cov, "POLYGON ((22 37, 25 37, 25 39, 22 39, 22 37))"^^strdf:WKT))
		} ORDER BY ?t LIMIT 20`
	for _, workers := range workerSet {
		b.Run(fmt.Sprintf("catalogue/workers=%d", workers), func(b *testing.B) {
			catalogue.MaxParallelism = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := catalogue.Query(catalogueQ)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
	catalogue.MaxParallelism = 0
}

// A1 — ablation: the snapshot's R-tree spatial candidate lookup (the
// operation every pushed-down spatial filter performs), plus a
// query-level comparison of pushdown on/off.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	window := geo.Envelope{MinX: 23, MinY: 37.5, MaxX: 23.5, MaxY: 38}
	for _, nSites := range []int{500, 2000, 8000, 32000} {
		st := strabon.NewStore()
		st.AddAll(linkeddata.SyntheticSites(nSites))
		sn := st.Snapshot()
		b.Run(fmt.Sprintf("lookup/sites=%d/rtree", nSites), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := sn.SpatialCandidates(window); len(got) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	// Query level: spatial pushdown prunes the BGP through the R-tree
	// before the exact filter runs; without it every site is tested.
	for _, nSites := range []int{2000, 8000} {
		st := strabon.NewStore()
		st.AddAll(linkeddata.SyntheticSites(nSites))
		query := `
			PREFIX gn: <http://sws.geonames.org/teleios/>
			PREFIX noa: <http://teleios.di.uoa.gr/noa#>
			PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
			SELECT ?s WHERE {
				?s a gn:ArchaeologicalSite .
				?s noa:hasGeometry ?g .
				FILTER(strdf:intersects(?g, "POLYGON ((23 37.5, 23.5 37.5, 23.5 38, 23 38, 23 37.5))"^^strdf:WKT))
			}`
		for _, mode := range []struct {
			name     string
			pushdown bool
		}{{"pushdown", true}, {"nopushdown", false}} {
			b.Run(fmt.Sprintf("query/sites=%d/%s", nSites, mode.name), func(b *testing.B) {
				eng := stsparql.New(st)
				eng.DisableSpatialPushdown = !mode.pushdown
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.Query(query)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Bindings) == 0 {
						b.Fatal("no sites in window")
					}
				}
			})
		}
	}
}

// A4 — the flagship join through the vectorized id-space executor. The
// binding-at-a-time side of this ablation was retired in PR 12; the
// surviving row keeps its name so it stays comparable with the historical
// BENCH_PR*.json records, which are in git history at 1b3f9ea.
func BenchmarkAblationExecutor(b *testing.B) {
	eng := flagshipFixture(b, 500)
	flagship := flagshipQueryText()
	b.Run("flagship/vectorized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := eng.Query(flagship)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Bindings) == 0 {
				b.Fatal("no results")
			}
		}
	})
}

// A3 — ablation: Data Vault lazy ingestion versus eager whole-repository
// loading, when a query touches a single product out of K.
func BenchmarkAblationDataVault(b *testing.B) {
	const nFrames = 16
	dir := b.TempDir()
	frames := raster.Generate(raster.GenOptions{Width: 128, Height: 128, Steps: nFrames})
	for _, f := range frames {
		if _, err := raster.SaveFrame(dir, f); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := vault.New()
			if err := v.Attach(dir); err != nil {
				b.Fatal(err)
			}
			ids := v.IDs()
			f, err := v.Frame(ids[len(ids)-1])
			if err != nil {
				b.Fatal(err)
			}
			if len(f.Bands) == 0 {
				b.Fatal("no bands")
			}
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := vault.New()
			if err := v.Attach(dir); err != nil {
				b.Fatal(err)
			}
			ids := v.IDs()
			for _, id := range ids {
				if _, err := v.Frame(id); err != nil {
					b.Fatal(err)
				}
			}
			f, err := v.Frame(ids[len(ids)-1])
			if err != nil {
				b.Fatal(err)
			}
			if len(f.Bands) == 0 {
				b.Fatal("no bands")
			}
		}
	})
}

// BenchmarkShapefileExport measures the product serialisation step of
// Scenario 1 (shapefile generation).
func BenchmarkShapefileExport(b *testing.B) {
	f := cachedFrames(128, 6)[5]
	p, err := noa.DefaultChain(scene.Region).Run(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := noa.WriteShapefile(io.Discard, p.Hotspots); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerOrdering contrasts the selectivity-ordered BGP
// evaluation against syntactic order on an unfavourably written query.
func BenchmarkOptimizerOrdering(b *testing.B) {
	st := strabon.NewStore()
	st.AddAll(linkeddata.All())
	st.AddAll(linkeddata.SyntheticSites(2000))
	// One needle.
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/needle"),
		rdf.IRI("http://ex/isNeedle"), rdf.BooleanLiteral(true)))
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/needle"),
		rdf.IRI(rdf.RDFType), rdf.IRI("http://sws.geonames.org/teleios/ArchaeologicalSite")))
	// Query written worst-first: the unselective pattern leads.
	query := `
		PREFIX gn: <http://sws.geonames.org/teleios/>
		SELECT ?s WHERE {
			?s a gn:ArchaeologicalSite .
			?s <http://ex/isNeedle> ?flag .
		}`
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"optimized", false}, {"syntactic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := stsparql.New(st)
			eng.DisableOptimizer = mode.disable
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Query(query)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Bindings) != 1 {
					b.Fatalf("rows = %d", len(res.Bindings))
				}
			}
		})
	}
}
