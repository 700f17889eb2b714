package stsparql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/linkeddata"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/strabon"
	"repro/internal/strdf"
)

// The read shapes of the client-observed benchmark's catalogue mix, in
// process: a window read (hotspots meeting a 0.3° box), the Figure-3
// catalogue search (sensor, time range, confidence floor, ORDER BY
// LIMIT) and the hotspot × archaeological-site distance join of one
// product. The store has the benchmark dataset's shape — 500 products of
// 50 hotspots each over four sensors, xsd:dateTime acquisition times,
// xsd:double confidences, plus 2,000 point sites — and is folded, so
// every read goes through the packed image's posting lists, dictionary
// blocks and geometry cache.

const (
	shapeProducts   = 500
	shapePerProduct = 50
	shapeSites      = 2000
	shapeNS         = "http://teleios.di.uoa.gr/noa#"
	shapePrefixes   = "PREFIX noa: <" + shapeNS + ">\n" +
		"PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>\n" +
		"PREFIX gn: <http://sws.geonames.org/teleios/>\n" +
		"PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n" +
		"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)

var (
	shapeSensors = []string{"MSG1-SEVIRI", "MSG2-SEVIRI", "MODIS-TERRA", "MODIS-AQUA"}
	shapeEpoch   = time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)

	shapeOnce  sync.Once
	shapeStore *strabon.Store
)

func shapeProductIRI(i int) rdf.Term {
	return rdf.IRI(fmt.Sprintf("%sproduct/OBS-%05d", shapeNS, i))
}

func shapeProductTime(i int) time.Time { return shapeEpoch.Add(time.Duration(i) * 15 * time.Minute) }

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// readShapeStore generates and folds the store once per test binary.
func readShapeStore() *strabon.Store {
	shapeOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		region := scene.Region
		var triples []rdf.Triple
		p := func(name string) rdf.Term { return rdf.IRI(shapeNS + name) }
		for i := 0; i < shapeProducts; i++ {
			at := shapeProductTime(i)
			when := rdf.TypedLiteral(at.Format(time.RFC3339), rdf.XSDDateTime)
			sensor := rdf.Literal(shapeSensors[i%len(shapeSensors)])
			product := shapeProductIRI(i)
			triples = append(triples,
				rdf.NewTriple(product, rdf.IRI(rdf.RDFType), p("Product")),
				rdf.NewTriple(product, p("inSensor"), sensor),
				rdf.NewTriple(product, p("acquiredAt"), when))
			for k := 0; k < shapePerProduct; k++ {
				w, h := 0.01+0.03*rng.Float64(), 0.01+0.03*rng.Float64()
				x := region.MinX + rng.Float64()*(region.Width()-w)
				y := region.MinY + rng.Float64()*(region.Height()-h)
				fp := geo.Rect(round4(x), round4(y), round4(x+w), round4(y+h))
				hs := rdf.IRI(fmt.Sprintf("%shotspot/OBS-%05d/hs%d", shapeNS, i, k))
				triples = append(triples,
					rdf.NewTriple(hs, rdf.IRI(rdf.RDFType), rdf.IRI("http://teleios.di.uoa.gr/monitoring#Hotspot")),
					rdf.NewTriple(hs, p("hasGeometry"), strdf.Literal(fp, geo.SRIDWGS84)),
					rdf.NewTriple(hs, p("hasConfidence"), rdf.DoubleLiteral(math.Round((0.5+0.5*rng.Float64())*1e3)/1e3)),
					rdf.NewTriple(hs, p("inSensor"), sensor),
					rdf.NewTriple(hs, p("acquiredAt"), when),
					rdf.NewTriple(hs, p("derivedFromProduct"), product),
					rdf.NewTriple(hs, p("pixelCount"), rdf.IntegerLiteral(int64(1+rng.Intn(40)))))
			}
		}
		triples = append(triples, linkeddata.SyntheticSites(shapeSites)...)
		st := strabon.NewStore()
		st.AddAll(triples)
		st.Fold(0)
		shapeStore = st
	})
	return shapeStore
}

// readShapeQueries draws n distinct texts of one shape.
func readShapeQueries(shape string, n int) []string {
	rng := rand.New(rand.NewSource(7))
	f4 := func(v float64) string { return strconv.FormatFloat(round4(v), 'f', -1, 64) }
	out := make([]string, n)
	for i := range out {
		switch shape {
		case "window":
			const side = 0.3
			r := scene.Region
			x := r.MinX + rng.Float64()*(r.Width()-side)
			y := r.MinY + rng.Float64()*(r.Height()-side)
			x0, y0, x1, y1 := f4(x), f4(y), f4(x+side), f4(y+side)
			out[i] = shapePrefixes + "SELECT ?h ?g ?c WHERE {\n" +
				"  ?h a mon:Hotspot .\n  ?h noa:hasGeometry ?g .\n  ?h noa:hasConfidence ?c .\n" +
				"  FILTER(strdf:intersects(?g, \"POLYGON ((" +
				x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 +
				"))\"^^strdf:WKT))\n}"
		case "catalogue":
			span := 8 + rng.Intn(41)
			from := rng.Intn(shapeProducts - span + 1)
			conf := 0.5 + 0.35*rng.Float64()
			out[i] = shapePrefixes + "SELECT ?h ?t ?c WHERE {\n" +
				"  ?h a mon:Hotspot .\n" +
				"  ?h noa:inSensor \"" + shapeSensors[rng.Intn(len(shapeSensors))] + "\" .\n" +
				"  ?h noa:acquiredAt ?t .\n  ?h noa:hasConfidence ?c .\n" +
				"  FILTER(?t >= \"" + shapeProductTime(from).Format(time.RFC3339) + "\"^^xsd:dateTime && " +
				"?t < \"" + shapeProductTime(from+span).Format(time.RFC3339) + "\"^^xsd:dateTime && " +
				"?c > " + strconv.FormatFloat(conf, 'f', 3, 64) + ")\n} ORDER BY ?t ?h LIMIT 20"
		case "join":
			out[i] = shapePrefixes + "SELECT DISTINCT ?h ?site WHERE {\n" +
				"  ?h noa:derivedFromProduct <" + shapeProductIRI(rng.Intn(shapeProducts)).Value + "> .\n" +
				"  ?h noa:hasGeometry ?hg .\n" +
				"  ?site a gn:ArchaeologicalSite .\n  ?site noa:hasGeometry ?sg .\n" +
				"  FILTER(strdf:distance(?hg, ?sg) < " + strconv.Itoa(4000+rng.Intn(2001)) + ")\n}"
		}
	}
	return out
}

// BenchmarkReadShapes reports ns, bytes and allocations per query of each
// shape, cycling through 32 parameterisations; run it with -benchmem.
func BenchmarkReadShapes(b *testing.B) {
	eng := New(readShapeStore())
	for _, shape := range []string{"window", "catalogue", "join"} {
		b.Run(shape, func(b *testing.B) {
			queries := readShapeQueries(shape, 32)
			for _, q := range queries { // parse once, outside the timer
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
