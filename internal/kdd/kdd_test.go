package kdd

import (
	"testing"

	"repro/internal/array"
	"repro/internal/geo"
	"repro/internal/ontology"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/strdf"
)

func TestHotspotClassifier(t *testing.T) {
	c := DefaultHotspotClassifier()
	ir39 := array.MustNew("a", array.Dim{Name: "y", Size: 1}, array.Dim{Name: "x", Size: 4})
	ir108 := array.MustNew("b", array.Dim{Name: "y", Size: 1}, array.Dim{Name: "x", Size: 4})
	// Cell 0: cold. Cell 1: hot but low contrast. Cell 2: hot and high
	// contrast (fire). Cell 3: warm contrast but below absolute.
	copy(ir39.Data, []float64{300, 330, 335, 315})
	copy(ir108.Data, []float64{299, 328, 310, 300})
	mask, err := c.Classify(ir39, ir108)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 0}
	for i := range want {
		if mask.Data[i] != want[i] {
			t.Fatalf("mask = %v", mask.Data)
		}
	}
	// Confidence monotone in both margins and bounded.
	weak := c.Confidence(319, 310)
	strong := c.Confidence(350, 310)
	if weak >= strong {
		t.Fatalf("confidence not monotone: %g >= %g", weak, strong)
	}
	if weak < 0.5 || strong >= 1 {
		t.Fatalf("confidence bounds: %g %g", weak, strong)
	}
}

func TestClassifierShapeMismatch(t *testing.T) {
	c := DefaultHotspotClassifier()
	a := array.MustNew("a", array.Dim{Name: "x", Size: 2})
	b := array.MustNew("b", array.Dim{Name: "x", Size: 3})
	if _, err := c.Classify(a, b); err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestKNN(t *testing.T) {
	m := NewKNN(3)
	if _, _, err := m.Classify([]float64{1}); err == nil {
		t.Fatal("empty model should error")
	}
	m.Train(
		Example{Features: []float64{0, 0}, Concept: "cold"},
		Example{Features: []float64{0, 1}, Concept: "cold"},
		Example{Features: []float64{10, 10}, Concept: "hot"},
		Example{Features: []float64{10, 11}, Concept: "hot"},
		Example{Features: []float64{11, 10}, Concept: "hot"},
	)
	if len(m.examples) != 5 {
		t.Fatal("train count")
	}
	concept, conf, err := m.Classify([]float64{10.5, 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if concept != "hot" || conf != 1 {
		t.Fatalf("classify = %s %g", concept, conf)
	}
	concept, conf, err = m.Classify([]float64{0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if concept != "cold" {
		t.Fatalf("classify = %s", concept)
	}
	if conf < 0.6 {
		t.Fatalf("conf = %g", conf)
	}
	// k larger than examples.
	big := NewKNN(100)
	big.Train(Example{Features: []float64{0}, Concept: "only"})
	c2, _, err := big.Classify([]float64{5})
	if err != nil || c2 != "only" {
		t.Fatal("k > n")
	}
}

func TestKNNDeterministicTieBreak(t *testing.T) {
	m := NewKNN(2)
	m.Train(
		Example{Features: []float64{0}, Concept: "b-concept"},
		Example{Features: []float64{2}, Concept: "a-concept"},
	)
	// Equidistant: tie broken by IRI order, deterministically.
	c1, _, _ := m.Classify([]float64{1})
	c2, _, _ := m.Classify([]float64{1})
	if c1 != c2 || c1 != "a-concept" {
		t.Fatalf("tie break = %s, %s", c1, c2)
	}
}

func TestAnnotationTriples(t *testing.T) {
	a := Annotation{
		Product:    "http://ex/product1",
		Concept:    ontology.LandCover + "Forest",
		Confidence: 0.8,
		Region:     geo.Rect(23, 38, 24, 39),
	}
	triples := a.Triples(7)
	if len(triples) != 4 {
		t.Fatalf("triples = %d", len(triples))
	}
	if triples[0].S.Value != "http://ex/product1" || triples[0].P.Value != PropAnnotated {
		t.Fatalf("link triple = %v", triples[0])
	}
	// Geometry literal decodes.
	var sawRegion bool
	for _, tr := range triples {
		if tr.P.Value == PropRegion {
			if _, err := strdf.ParseSpatial(tr.O); err != nil {
				t.Fatal(err)
			}
			sawRegion = true
		}
	}
	if !sawRegion {
		t.Fatal("region missing")
	}
}

func TestAnnotatePatchesOnScene(t *testing.T) {
	f := raster.Generate(raster.GenOptions{Width: 64, Height: 64, Steps: 4})[3]
	img := f.Bands[raster.BandIR39]
	model := TrainLandCoverModel()
	anns, err := AnnotatePatches("http://ex/p1", img, f.GeoRef, 8, model, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
	// Sea patches (bottom-left corner of the region is sea) classify Sea.
	counts := map[string]int{}
	for _, a := range anns {
		counts[a.Concept]++
		if a.Confidence < 0.5 {
			t.Fatalf("confidence %g below threshold", a.Confidence)
		}
		if a.Region.IsEmpty() {
			t.Fatal("empty region")
		}
	}
	if counts[ontology.LandCover+"Sea"] == 0 {
		t.Fatalf("no sea annotations: %v", counts)
	}
	if counts[ontology.LandCover+"Vegetation"] == 0 {
		t.Fatalf("no vegetation annotations: %v", counts)
	}
	// Hotspot patches appear (PineFire burns from step 0).
	if counts[ontology.Monitoring+"Hotspot"] == 0 {
		t.Fatalf("no hotspot annotations: %v", counts)
	}
	// Sea annotations sit over the sea.
	land := scene.Landmass()
	seaHits, seaTotal := 0, 0
	for _, a := range anns {
		if a.Concept == ontology.LandCover+"Sea" {
			seaTotal++
			if !geo.Within(geo.Centroid(a.Region), land) {
				seaHits++
			}
		}
	}
	if seaHits*2 < seaTotal {
		t.Fatalf("sea annotations mostly on land: %d/%d off-land", seaHits, seaTotal)
	}
}

func TestEuclideanDimensionMismatch(t *testing.T) {
	d1 := euclidean([]float64{0, 0}, []float64{0, 0, 5})
	d2 := euclidean([]float64{0, 0}, []float64{0, 0})
	if d1 <= d2 {
		t.Fatal("extra dimensions should penalise distance")
	}
}
