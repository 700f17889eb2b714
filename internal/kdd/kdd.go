// Package kdd implements the knowledge-discovery tier of the paper
// (Datcu et al., deliverable 3.1): classifiers that map image content to
// domain-ontology concepts, and semantic annotation that publishes those
// concepts as stRDF linked data, closing the "semantic gap" between
// archive metadata and user concepts like "forest fire".
package kdd

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/ontology"
	"repro/internal/parallel"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// HotspotClassifier is the contextual threshold classifier of the NOA
// fire product: a pixel is a hotspot when the 3.9um brightness temperature
// is high in absolute terms AND elevated against the 10.8um background.
// This is the classic bi-spectral (Dozier-style) test.
type HotspotClassifier struct {
	// AbsoluteK is the minimum IR 3.9um brightness temperature (kelvin).
	AbsoluteK float64
	// DeltaK is the minimum (T3.9 - T10.8) contrast.
	DeltaK float64
}

// DefaultHotspotClassifier returns thresholds tuned to the synthetic
// SEVIRI scene (day-time fire test).
func DefaultHotspotClassifier() HotspotClassifier {
	return HotspotClassifier{AbsoluteK: 318, DeltaK: 8}
}

// Classify produces a binary hotspot mask from the two thermal bands.
func (c HotspotClassifier) Classify(ir39, ir108 *array.Array) (*array.Array, error) {
	return array.Combine(ir39, ir108, func(t39, t108 float64) float64 {
		if t39 >= c.AbsoluteK && t39-t108 >= c.DeltaK {
			return 1
		}
		return 0
	})
}

// Confidence scores a detected pixel in [0.5, 1) by how far it clears the
// thresholds.
func (c HotspotClassifier) Confidence(t39, t108 float64) float64 {
	excess := math.Min((t39-c.AbsoluteK)/20, 1) + math.Min((t39-t108-c.DeltaK)/20, 1)
	conf := 0.5 + 0.25*excess
	if conf > 0.99 {
		conf = 0.99
	}
	if conf < 0.5 {
		conf = 0.5
	}
	return conf
}

// Example is one labelled feature vector for the kNN classifier.
type Example struct {
	Features []float64
	// Concept is the ontology class IRI the example is labelled with.
	Concept string
}

// KNNClassifier maps patch feature vectors to ontology concepts by
// majority vote among the k nearest labelled examples — the image
// information mining component that annotates patches with land-cover
// concepts.
type KNNClassifier struct {
	K        int
	examples []Example
}

// NewKNN returns a classifier with the given k (3 when k <= 0).
func NewKNN(k int) *KNNClassifier {
	if k <= 0 {
		k = 3
	}
	return &KNNClassifier{K: k}
}

// Train adds labelled examples.
func (c *KNNClassifier) Train(examples ...Example) {
	c.examples = append(c.examples, examples...)
}

// Classify returns the majority concept among the k nearest examples and
// the fraction of votes it received. It runs a bounded k-best selection
// over the examples — no full sort, no per-call allocation — so the
// patch annotation fan-out can call it from every worker.
func (c *KNNClassifier) Classify(features []float64) (string, float64, error) {
	if len(c.examples) == 0 {
		return "", 0, fmt.Errorf("kdd: classifier has no training examples")
	}
	k := c.K
	if k > len(c.examples) {
		k = len(c.examples)
	}
	if k <= 0 {
		// A directly-constructed classifier can carry K <= 0; the legacy
		// sort-based selection degraded to zero votes ("", NaN).
		return "", math.NaN(), nil
	}
	const maxStack = 16
	var distBuf [maxStack]float64
	var conceptBuf [maxStack]string
	dist, concept := distBuf[:0], conceptBuf[:0]
	if k > maxStack {
		dist = make([]float64, 0, k)
		concept = make([]string, 0, k)
	}
	// Insertion keeps the list ascending; ties keep the earlier example
	// (stable in training order).
	for _, ex := range c.examples {
		d := euclidean(features, ex.Features)
		if len(dist) == k && d >= dist[k-1] {
			continue
		}
		pos := len(dist)
		if len(dist) < k {
			dist = append(dist, 0)
			concept = append(concept, "")
		} else {
			pos = k - 1
		}
		for pos > 0 && dist[pos-1] > d {
			dist[pos], concept[pos] = dist[pos-1], concept[pos-1]
			pos--
		}
		dist[pos], concept[pos] = d, ex.Concept
	}
	// Majority vote; ties resolve to the lexicographically smallest
	// concept IRI, the legacy tie-break.
	best, bestN := "", 0
	for i, ci := range concept {
		seen := false
		for _, cj := range concept[:i] {
			if cj == ci {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		n := 0
		for _, cj := range concept {
			if cj == ci {
				n++
			}
		}
		if n > bestN || n == bestN && ci < best {
			best, bestN = ci, n
		}
	}
	return best, float64(bestN) / float64(k), nil
}

func euclidean(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	// Dimension mismatch penalises distance.
	sum += float64(len(a)-n) + float64(len(b)-n)
	return math.Sqrt(sum)
}

// Annotation vocabulary.
const (
	PropAnnotated  = ontology.NOA + "hasAnnotation"
	PropConcept    = ontology.NOA + "annotationConcept"
	PropConfidence = ontology.NOA + "annotationConfidence"
	PropRegion     = ontology.NOA + "annotationRegion"
)

// Annotation links an image region to an ontology concept.
type Annotation struct {
	// Product is the annotated product IRI.
	Product string
	// Concept is the ontology class IRI.
	Concept string
	// Confidence in [0, 1].
	Confidence float64
	// Region is the annotated region (WGS84).
	Region geo.Geometry
}

// Triples serialises the annotation as stRDF (one blank-node-free
// annotation resource per region).
func (a Annotation) Triples(seq int) []rdf.Triple {
	buf := make([]byte, 0, len(ontology.NOA)+40)
	buf = append(buf, ontology.NOA...)
	buf = append(buf, "annotation/"...)
	buf = strconv.AppendUint(buf, hashName(a.Product), 16)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(seq), 10)
	ann := rdf.IRI(string(buf))
	return []rdf.Triple{
		rdf.NewTriple(rdf.IRI(a.Product), rdf.IRI(PropAnnotated), ann),
		rdf.NewTriple(ann, rdf.IRI(PropConcept), rdf.IRI(a.Concept)),
		rdf.NewTriple(ann, rdf.IRI(PropConfidence), rdf.DoubleLiteral(a.Confidence)),
		rdf.NewTriple(ann, rdf.IRI(PropRegion), strdf.Literal(a.Region, geo.SRIDWGS84)),
	}
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AnnotatePatches classifies every patch of a band with the kNN model and
// emits annotations whose regions are the patch ground footprints. Patches
// with vote share below minConfidence are skipped. Classification fans
// out over the shared tile worker pool (the model is read-only), with
// output order preserved.
func AnnotatePatches(productIRI string, img *array.Array, gr raster.GeoRef, patchSize int,
	model *KNNClassifier, minConfidence float64) ([]Annotation, error) {
	patches, err := ingest.ExtractPatches(img, patchSize)
	if err != nil {
		return nil, err
	}
	results := make([]Annotation, len(patches))
	keep := make([]bool, len(patches))
	errs := make([]error, len(patches))
	parallel.Range(len(patches), func(lo, hi int) {
		var feat [13]float64
		for i := lo; i < hi; i++ {
			p := patches[i]
			concept, conf, err := model.Classify(p.AppendVector(feat[:0]))
			if err != nil {
				errs[i] = err
				continue
			}
			if conf < minConfidence {
				continue
			}
			y0 := p.Row * patchSize
			x0 := p.Col * patchSize
			tl := gr.PixelEnvelope(y0, x0)
			br := gr.PixelEnvelope(y0+patchSize-1, x0+patchSize-1)
			results[i] = Annotation{
				Product:    productIRI,
				Concept:    concept,
				Confidence: conf,
				Region:     tl.Extend(br).ToPolygon(),
			}
			keep[i] = true
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]Annotation, 0, len(patches))
	for i, k := range keep {
		if k {
			out = append(out, results[i])
		}
	}
	return out, nil
}

// TrainLandCoverModel builds a small training set from the synthetic
// scene's physics: sea patches are cold and flat, land warm, fires very
// hot with strong texture. The features follow
// ingest.PatchFeatures.AppendVector ordering (mean, stddev, min, max, texture, 8 histogram bins).
func TrainLandCoverModel() *KNNClassifier {
	m := NewKNN(3)
	lc := func(s string) string { return ontology.LandCover + s }
	mon := func(s string) string { return ontology.Monitoring + s }
	vec := func(mean, std, min, max, tex float64, peak int) []float64 {
		v := []float64{mean, std, min, max, tex}
		h := make([]float64, 8)
		h[peak] = 1
		return append(v, h...)
	}
	m.Train(
		Example{Features: vec(290, 1.0, 288, 292, 0.5, 0), Concept: lc("Sea")},
		Example{Features: vec(291, 1.2, 289, 293, 0.6, 0), Concept: lc("Sea")},
		Example{Features: vec(302, 2.5, 298, 306, 1.5, 3), Concept: lc("Vegetation")},
		Example{Features: vec(305, 2.0, 300, 309, 1.2, 4), Concept: lc("Vegetation")},
		Example{Features: vec(330, 12, 305, 360, 8, 7), Concept: mon("Hotspot")},
		Example{Features: vec(345, 15, 310, 380, 10, 7), Concept: mon("Hotspot")},
	)
	return m
}
