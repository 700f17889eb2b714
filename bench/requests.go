package bench

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/noa"
	"repro/internal/scene"
)

// Class is a request's query class; per-class numbers are reported
// because the classes differ by two orders of magnitude in cost.
type Class uint8

const (
	ClassWindow    Class = iota // hotspots intersecting a 0.3° box
	ClassCatalogue              // Figure-3 search: sensor + time range + confidence, ORDER BY LIMIT
	ClassJoin                   // flagship hotspot × archaeological site distance join
	ClassInsert                 // single-observation INSERT DATA
	numClasses
)

func (c Class) String() string {
	return [...]string{"window", "catalogue", "join", "insert"}[c]
}

// Request is one generated HTTP request. Reads are GET /sparql; inserts
// POST the update text as application/sparql-update.
type Request struct {
	Class   Class
	Text    string // query or update text
	Path    string // reads: "/sparql?query=...&format=..."
	GeoJSON bool   // the response is a FeatureCollection, not SPARQL-JSON
	Ordered bool   // ORDER BY ... LIMIT: row order is part of the answer
	IRI     string // inserts: the hotspot IRI written
}

const prefixes = "PREFIX noa: <http://teleios.di.uoa.gr/noa#>\n" +
	"PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>\n" +
	"PREFIX gn: <http://sws.geonames.org/teleios/>\n" +
	"PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n" +
	"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

func f4(v float64) string { return strconv.FormatFloat(round4(v), 'f', -1, 64) }

// windowBox places a 0.3° box at random inside the scene region.
func windowBox(rng *rand.Rand) geo.Envelope {
	const side = 0.3
	x := scene.Region.MinX + rng.Float64()*(scene.Region.Width()-side)
	y := scene.Region.MinY + rng.Float64()*(scene.Region.Height()-side)
	return geo.Envelope{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
}

// windowQuery asks for the hotspots intersecting a window box (~110
// rows at full scale).
func windowQuery(rng *rand.Rand) Request {
	box := windowBox(rng)
	x0, y0, x1, y1 := f4(box.MinX), f4(box.MinY), f4(box.MaxX), f4(box.MaxY)
	text := prefixes + "SELECT ?h ?g ?c WHERE {\n" +
		"  ?h a mon:Hotspot .\n  ?h noa:hasGeometry ?g .\n  ?h noa:hasConfidence ?c .\n" +
		"  FILTER(strdf:intersects(?g, \"POLYGON ((" +
		x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 +
		"))\"^^strdf:WKT))\n}"
	return readRequest(ClassWindow, text, rng.Intn(2) == 0, false)
}

// catalogueQuery is the Figure-3 catalogue search: one sensor, a time
// range of 8–48 products, a confidence floor, first page of 20. The
// secondary sort key makes the page a total order, so the oracle can
// check row order.
func catalogueQuery(rng *rand.Rand, sc Scale) Request {
	span := 8 + rng.Intn(41)
	if span > sc.Products {
		span = sc.Products
	}
	from := rng.Intn(sc.Products - span + 1)
	conf := 0.5 + 0.35*rng.Float64()
	text := prefixes + "SELECT ?h ?t ?c WHERE {\n" +
		"  ?h a mon:Hotspot .\n" +
		"  ?h noa:inSensor \"" + Sensors[rng.Intn(len(Sensors))] + "\" .\n" +
		"  ?h noa:acquiredAt ?t .\n  ?h noa:hasConfidence ?c .\n" +
		"  FILTER(?t >= \"" + ProductTime(from).Format(time.RFC3339) + "\"^^xsd:dateTime && " +
		"?t < \"" + ProductTime(from+span).Format(time.RFC3339) + "\"^^xsd:dateTime && " +
		"?c > " + strconv.FormatFloat(conf, 'f', 3, 64) + ")\n} ORDER BY ?t ?h LIMIT 20"
	return readRequest(ClassCatalogue, text, false, true)
}

// joinQuery is the paper's flagship join restricted to one product: the
// archaeological sites within 4–6 km of any of its hotspots.
func joinQuery(rng *rand.Rand, sc Scale) Request {
	radius := 4000 + rng.Intn(2001)
	text := prefixes + "SELECT DISTINCT ?h ?site WHERE {\n" +
		"  ?h noa:derivedFromProduct <" + noa.ProductIRI(ProductID(rng.Intn(sc.Products))).Value + "> .\n" +
		"  ?h noa:hasGeometry ?hg .\n" +
		"  ?site a gn:ArchaeologicalSite .\n  ?site noa:hasGeometry ?sg .\n" +
		"  FILTER(strdf:distance(?hg, ?sg) < " + strconv.Itoa(radius) + ")\n}"
	return readRequest(ClassJoin, text, false, false)
}

func readRequest(c Class, text string, geojson, ordered bool) Request {
	format := "json"
	if geojson {
		format = "geojson"
	}
	return Request{
		Class:   c,
		Text:    text,
		Path:    "/sparql?query=" + url.QueryEscape(text) + "&format=" + format,
		GeoJSON: geojson,
		Ordered: ordered,
	}
}

// classPattern fixes the class of every tenth position of the read
// pool: 70 % window, 20 % catalogue, 10 % join. The mix is exact, not
// drawn, so that two seeds differ in the queries' parameters but not in
// how many expensive ones a run sends; and the hot set's popularity
// ranks (pool positions 0..63) carry the same classes under every seed.
var classPattern = [10]Class{
	ClassWindow, ClassWindow, ClassWindow, ClassCatalogue, ClassWindow,
	ClassWindow, ClassJoin, ClassWindow, ClassCatalogue, ClassWindow,
}

// ReadPool draws n distinct read requests in the catalogue mix.
func ReadPool(seed int64, sc Scale, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	pool := make([]Request, 0, n)
	for len(pool) < n {
		var r Request
		switch classPattern[len(pool)%len(classPattern)] {
		case ClassWindow:
			r = windowQuery(rng)
		case ClassCatalogue:
			r = catalogueQuery(rng, sc)
		default:
			r = joinQuery(rng, sc)
		}
		if seen[r.Path] {
			continue
		}
		seen[r.Path] = true
		pool = append(pool, r)
	}
	return pool
}

// ZipfOrder returns n indices into a hot set of the given size, drawn
// Zipf(1.1): index 0 is the most popular text.
func ZipfOrder(seed int64, size, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(size-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// InsertRequest wraps one fleet observation as an INSERT DATA update.
func InsertRequest(o FleetObservation) Request {
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for _, t := range o.Triples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	b.WriteString("}")
	return Request{Class: ClassInsert, Text: b.String(), IRI: o.IRI}
}

// Inserter yields an endless stream of single-observation inserts; it
// may be shared by the generator's connections.
type Inserter struct {
	mu    sync.Mutex
	fleet *Fleet
}

// NewInserter returns the insert stream named stream of a seed.
func NewInserter(seed int64, stream string) *Inserter {
	return &Inserter{fleet: NewFleet(seed, stream)}
}

// Next returns the stream's next insert.
func (in *Inserter) Next() Request {
	in.mu.Lock()
	o := in.fleet.Next()
	in.mu.Unlock()
	return InsertRequest(o)
}

// lookupByIRI is the read-your-writes probe: the triples of one hotspot.
func lookupByIRI(iri string) string {
	return fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", iri)
}

// fleetIRIsQuery lists every hotspot the fleet has published.
const fleetIRIsQuery = prefixes + "SELECT ?h WHERE { ?h noa:inSensor \"" + FleetSensor + "\" }"

// hotspotCountQuery lists every hotspot; the engine has no aggregates,
// so the final-count check counts rows.
const hotspotCountQuery = prefixes + "SELECT ?h WHERE { ?h a mon:Hotspot }"
