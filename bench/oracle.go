package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

// The correctness oracle for reads is the engine itself, run in this
// process over a copy of the golden directory the child server serves.
// An answer is compared as a row count plus a hash of its rows: the sum
// of per-row hashes when order is free, a chained hash when the query is
// ORDER BY ... LIMIT. Both sides reduce a row to the same canonical
// form, the oracle from rdf.Terms and the client from the decoded
// SPARQL-JSON or GeoJSON body.

// Answer is the canonical digest of one result.
type Answer struct {
	Rows int
	Hash uint64
}

type rowHasher struct {
	ordered bool
	ans     Answer
}

func (h *rowHasher) add(row uint64) {
	h.ans.Rows++
	if h.ordered {
		h.ans.Hash = h.ans.Hash*1099511628211 + row
	} else {
		h.ans.Hash += row
	}
}

// field is one canonical cell: a variable and the strings that identify
// its value.
type field struct {
	name  string
	parts [4]string
}

func hashFields(fs []field, geomType string, coords []float64) uint64 {
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	h := fnv.New64a()
	var sep = []byte{0}
	for _, f := range fs {
		h.Write([]byte(f.name))
		h.Write(sep)
		for _, p := range f.parts {
			h.Write([]byte(p))
			h.Write(sep)
		}
	}
	h.Write([]byte(geomType))
	var b [8]byte
	for _, c := range coords {
		bits := math.Float64bits(c)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// termField maps a term onto the SPARQL 1.1 Results JSON vocabulary.
func termField(name string, t rdf.Term) field {
	switch t.Kind {
	case rdf.KindIRI:
		return field{name, [4]string{"uri", t.Value}}
	case rdf.KindBlank:
		return field{name, [4]string{"bnode", t.Value}}
	}
	f := field{name, [4]string{"literal", t.Value}}
	if t.Lang != "" {
		f.parts[3] = t.Lang
	} else if t.Datatype != rdf.XSDString {
		f.parts[2] = t.Datatype
	}
	return f
}

// plainValue is a term's GeoJSON property: the bare lexical form.
func plainValue(t rdf.Term) string {
	if t.Kind == rdf.KindBlank {
		return "_:" + t.Value
	}
	return t.Value
}

// flattenGeometry reduces the geometry kinds the dataset contains to
// GeoJSON's type name and coordinate sequence.
func flattenGeometry(g geo.Geometry) (string, []float64, error) {
	switch t := g.(type) {
	case geo.Point:
		return "Point", []float64{t.X, t.Y}, nil
	case geo.Polygon:
		var out []float64
		for _, ring := range append([]geo.Ring{t.Exterior}, t.Holes...) {
			for _, p := range ring.Coords {
				out = append(out, p.X, p.Y)
			}
		}
		return "Polygon", out, nil
	}
	return "", nil, fmt.Errorf("oracle: no canonical form for %T", g)
}

// AnswerOf digests an engine result the way the response to req must
// digest.
func AnswerOf(req *Request, res *stsparql.Result) (Answer, error) {
	h := rowHasher{ordered: req.Ordered}
	for _, b := range res.Bindings {
		if !req.GeoJSON {
			fs := make([]field, 0, len(b))
			for v, t := range b {
				fs = append(fs, termField(v, t))
			}
			h.add(hashFields(fs, "", nil))
			continue
		}
		// GeoJSON: the first projected variable bound to a spatial
		// literal is the feature geometry, the rest are properties.
		geomVar, geomType := "", ""
		var coords []float64
		for _, v := range res.Vars {
			if t, ok := b[v]; ok && t.IsSpatial() {
				sv, err := strdf.ParseSpatial(t)
				if err != nil {
					return Answer{}, fmt.Errorf("oracle: %w", err)
				}
				if geomType, coords, err = flattenGeometry(sv.Geom); err != nil {
					return Answer{}, err
				}
				geomVar = v
				break
			}
		}
		fs := make([]field, 0, len(b))
		for v, t := range b {
			if v != geomVar {
				fs = append(fs, field{v, [4]string{plainValue(t)}})
			}
		}
		h.add(hashFields(fs, geomType, coords))
	}
	return h.ans, nil
}

// sparqlJSON is the SPARQL 1.1 Query Results JSON document.
type sparqlJSON struct {
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Datatype string `json:"datatype"`
			Lang     string `json:"xml:lang"`
		} `json:"bindings"`
	} `json:"results"`
}

// featureCollection is the GeoJSON document the endpoint writes.
type featureCollection struct {
	Type     string `json:"type"`
	Features []struct {
		Geometry *struct {
			Type        string `json:"type"`
			Coordinates any    `json:"coordinates"`
		} `json:"geometry"`
		Properties map[string]string `json:"properties"`
	} `json:"features"`
}

func flattenCoords(v any, out []float64) ([]float64, error) {
	switch t := v.(type) {
	case float64:
		return append(out, t), nil
	case []any:
		var err error
		for _, e := range t {
			if out, err = flattenCoords(e, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unexpected %T inside GeoJSON coordinates", v)
}

// AnswerOfBody digests a response body.
func AnswerOfBody(req *Request, body []byte) (Answer, error) {
	h := rowHasher{ordered: req.Ordered}
	if !req.GeoJSON {
		var doc sparqlJSON
		if err := json.Unmarshal(body, &doc); err != nil {
			return Answer{}, fmt.Errorf("decoding SPARQL-JSON: %w", err)
		}
		for _, b := range doc.Results.Bindings {
			fs := make([]field, 0, len(b))
			for v, c := range b {
				fs = append(fs, field{v, [4]string{c.Type, c.Value, c.Datatype, c.Lang}})
			}
			h.add(hashFields(fs, "", nil))
		}
		return h.ans, nil
	}
	var doc featureCollection
	if err := json.Unmarshal(body, &doc); err != nil {
		return Answer{}, fmt.Errorf("decoding GeoJSON: %w", err)
	}
	if doc.Type != "FeatureCollection" {
		return Answer{}, fmt.Errorf("GeoJSON document is a %q, not a FeatureCollection", doc.Type)
	}
	for _, f := range doc.Features {
		geomType := ""
		var coords []float64
		if f.Geometry != nil {
			var err error
			if coords, err = flattenCoords(f.Geometry.Coordinates, nil); err != nil {
				return Answer{}, err
			}
			geomType = f.Geometry.Type
		}
		fs := make([]field, 0, len(f.Properties))
		for v, s := range f.Properties {
			fs = append(fs, field{v, [4]string{s}})
		}
		h.add(hashFields(fs, geomType, coords))
	}
	return h.ans, nil
}

// Oracle is the in-process engine over a private copy of the golden
// directory.
type Oracle struct {
	Engine  *stsparql.Engine
	Manager *persist.Manager
}

// OpenOracle recovers dir, which must be a copy nobody else serves:
// opening appends to its WAL.
func OpenOracle(dir string) (*Oracle, error) {
	m, st, err := persist.Open(persist.Options{Dir: dir, NoCheckpointOnClose: true, CheckpointBytes: -1})
	if err != nil {
		return nil, fmt.Errorf("oracle: opening %s: %w", dir, err)
	}
	return &Oracle{Engine: stsparql.New(st), Manager: m}, nil
}

// Close releases the oracle's data directory.
func (o *Oracle) Close() error { return o.Manager.Close() }

// Answers evaluates every request on `workers` goroutines.
func (o *Oracle) Answers(reqs []Request, workers int) ([]Answer, error) {
	out := make([]Answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q, err := stsparql.ParseQuery(reqs[i].Text)
				if err == nil {
					var res *stsparql.Result
					if res, err = o.Engine.Eval(q); err == nil {
						out[i], err = AnswerOf(&reqs[i], res)
					}
				}
				if err != nil {
					errs[w] = fmt.Errorf("oracle: request %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Verifier checks responses to a fixed request pool against the
// oracle's answers. A body byte-identical to one already verified for
// the same request is accepted on its hash alone, which keeps the
// generator's share of the two cores small on the cache-hit workload.
type Verifier struct {
	Pool    []Request
	Answers []Answer
	seen    []atomic.Uint64 // FNV-1a of the last verified body per request
}

// NewVerifier pairs a pool with its oracle answers.
func NewVerifier(pool []Request, answers []Answer) *Verifier {
	return &Verifier{Pool: pool, Answers: answers, seen: make([]atomic.Uint64, len(pool))}
}

// Check verifies the response to Pool[i] and returns its row count.
func (v *Verifier) Check(i int, status int, body []byte) (rows int, err error) {
	if status != 200 {
		return 0, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(firstBytes(body, 200)))
	}
	want := v.Answers[i]
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64() | 1 // never the zero that means "nothing verified yet"
	if v.seen[i].Load() == sum {
		return want.Rows, nil
	}
	got, err := AnswerOfBody(&v.Pool[i], body)
	if err != nil {
		return 0, err
	}
	if got != want {
		return got.Rows, fmt.Errorf("wrong answer to %s query %d: %d rows hash %016x, oracle has %d rows hash %016x",
			v.Pool[i].Class, i, got.Rows, got.Hash, want.Rows, want.Hash)
	}
	v.seen[i].Store(sum)
	return want.Rows, nil
}

func firstBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}
