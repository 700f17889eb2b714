// Package bench is teleios-bench: the client-observed benchmark of a live
// teleios-server. It generates a seeded observatory dataset, boots the
// real server as a child process, drives it over HTTP from one generator
// process, checks every response against an in-process oracle, and
// reports the end-to-end and per-layer metrics BENCHMARK.json declares.
// README.md describes the workloads and what each metric is expected to
// move.
package bench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/linkeddata"
	"repro/internal/noa"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/strdf"
)

// Scale sizes the generated dataset. FullScale is the benchmark's
// observatory-200k; SmokeScale is the tiny one the tests boot in
// seconds.
type Scale struct {
	Products     int // golden products
	PerProduct   int // hotspot observations per product
	Sites        int // linkeddata.SyntheticSites argument
	FleetArchive int // observations in fleet_ingest's bulk archive
}

var (
	FullScale  = Scale{Products: 500, PerProduct: 50, Sites: 2000, FleetArchive: 25000}
	SmokeScale = Scale{Products: 40, PerProduct: 10, Sites: 200, FleetArchive: 300}
)

// Sensors the golden products rotate through; a catalogue search names
// one of them.
var Sensors = []string{"MSG1-SEVIRI", "MSG2-SEVIRI", "MODIS-TERRA", "MODIS-AQUA"}

// FleetSensor tags every observation the write workloads publish. No
// read query names it, fleet observations lie in FleetRegion (east of
// every query window) and derive from fleet products, so a read has one
// right answer however it interleaves with the writes.
const FleetSensor = "FLEET-TESS"

// FleetRegion is where fleet observations are placed.
var FleetRegion = geo.Envelope{MinX: 28, MinY: 36, MaxX: 30, MaxY: 40}

// epoch is the acquisition time of golden product 0; product i follows
// 15 minutes per step, as SEVIRI does.
var epoch = time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)

const triplesPerObservation = 8

// Dataset is the seeded golden dataset, kept as N-Triples text (what
// POST /ingest takes) plus the few facts the request generators need.
type Dataset struct {
	Seed         int64
	Scale        Scale
	NTriples     []byte
	Triples      int // statements in NTriples (duplicates included)
	Observations int // golden hotspot observations
}

// ProductID names golden product i.
func ProductID(i int) string { return fmt.Sprintf("OBS-%05d", i) }

// ProductTime is golden product i's acquisition time.
func ProductTime(i int) time.Time { return epoch.Add(time.Duration(i) * 15 * time.Minute) }

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// footprint draws a small rectangular hotspot footprint inside env.
func footprint(rng *rand.Rand, env geo.Envelope) geo.Polygon {
	w := 0.01 + 0.03*rng.Float64()
	h := 0.01 + 0.03*rng.Float64()
	x := env.MinX + rng.Float64()*(env.Width()-w)
	y := env.MinY + rng.Float64()*(env.Height()-h)
	return geo.Rect(round4(x), round4(y), round4(x+w), round4(y+h))
}

func observation(rng *rand.Rand, frame string, k int, at time.Time, sensor string, env geo.Envelope) noa.Hotspot {
	return noa.Hotspot{
		ID:         fmt.Sprintf("%s/hs%d", frame, k),
		FrameID:    frame,
		Time:       at,
		Geometry:   footprint(rng, env),
		Confidence: math.Round((0.5+0.5*rng.Float64())*1e3) / 1e3,
		Sensor:     sensor,
		PixelCount: 1 + rng.Intn(40),
	}
}

func productMetadata(frame string, at time.Time, sensor string, env geo.Envelope) []rdf.Triple {
	s := noa.ProductIRI(frame)
	return []rdf.Triple{
		rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI(ingest.ClassProduct)),
		rdf.NewTriple(s, rdf.IRI(ingest.PropSensor), rdf.Literal(sensor)),
		rdf.NewTriple(s, rdf.IRI(ingest.PropAcquired),
			rdf.TypedLiteral(at.UTC().Format(time.RFC3339), rdf.XSDDateTime)),
		rdf.NewTriple(s, rdf.IRI(ingest.PropCoverage), strdf.Literal(env.ToPolygon(), geo.SRIDWGS84)),
	}
}

// ntWriter accumulates N-Triples text and counts statements.
type ntWriter struct {
	buf bytes.Buffer
	n   int
}

func (w *ntWriter) add(triples []rdf.Triple) {
	for _, t := range triples {
		w.buf.WriteString(t.String())
		w.buf.WriteByte('\n')
	}
	w.n += len(triples)
}

// Generate builds the golden dataset for a seed: Products × PerProduct
// hotspot observations spread over the scene region, per-product
// catalogue metadata, the linked open data layers and the synthetic
// archaeological sites the join queries search.
func Generate(seed int64, sc Scale) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	var w ntWriter
	for i := 0; i < sc.Products; i++ {
		frame, at, sensor := ProductID(i), ProductTime(i), Sensors[i%len(Sensors)]
		w.add(productMetadata(frame, at, sensor, scene.Region))
		for k := 0; k < sc.PerProduct; k++ {
			w.add(noa.HotspotTriples(observation(rng, frame, k, at, sensor, scene.Region)))
		}
	}
	w.add(linkeddata.All())
	w.add(linkeddata.SyntheticSites(sc.Sites))
	return &Dataset{
		Seed:         seed,
		Scale:        sc,
		NTriples:     w.buf.Bytes(),
		Triples:      w.n,
		Observations: sc.Products * sc.PerProduct,
	}
}

// FleetObservation is one fresh observation a write workload publishes.
type FleetObservation struct {
	IRI     string
	Triples []rdf.Triple
}

// Fleet generates the write side's observations. Stream names which
// independent sequence (the bulk archive, a client's inserts, a probe)
// so that no two sequences of one run share an IRI.
type Fleet struct {
	rng    *rand.Rand
	stream string
	n      int
}

// NewFleet returns the generator for one named stream of a seed.
func NewFleet(seed int64, stream string) *Fleet {
	var h int64
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return &Fleet{rng: rand.New(rand.NewSource(seed ^ h<<20)), stream: stream}
}

// Next returns the stream's next observation: a new hotspot IRI under a
// fleet product (50 observations each, 15 minutes apart), in FleetRegion.
func (f *Fleet) Next() FleetObservation {
	product := f.n / 50
	frame := fmt.Sprintf("FLEET-%s-%05d", f.stream, product)
	at := epoch.Add(365*24*time.Hour + time.Duration(product)*15*time.Minute)
	h := observation(f.rng, frame, f.n%50, at, FleetSensor, FleetRegion)
	f.n++
	return FleetObservation{IRI: noa.HotspotIRI(h).Value, Triples: noa.HotspotTriples(h)}
}

// Archive renders the next n observations as one N-Triples body.
func (f *Fleet) Archive(n int) (body []byte, triples int) {
	var w ntWriter
	for i := 0; i < n; i++ {
		w.add(f.Next().Triples)
	}
	return w.buf.Bytes(), w.n
}
