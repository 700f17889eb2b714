package ontology

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestSubsumption(t *testing.T) {
	o := New()
	o.AddSubClass("B", "A")
	o.AddSubClass("C", "B")
	o.AddSubClass("D", "B")
	if !o.IsSubClassOf("C", "A") {
		t.Fatal("transitive subclass")
	}
	if !o.IsSubClassOf("C", "C") {
		t.Fatal("reflexive subclass")
	}
	if o.IsSubClassOf("A", "C") {
		t.Fatal("inverse should not hold")
	}
	if o.IsSubClassOf("C", "D") {
		t.Fatal("siblings are not subclasses")
	}
}

func TestDuplicateSubclassIgnored(t *testing.T) {
	o := New()
	o.AddSubClass("B", "A")
	o.AddSubClass("B", "A")
	if got := o.super["B"]; len(got) != 1 {
		t.Fatalf("direct superclasses = %v", got)
	}
}

func TestDiamond(t *testing.T) {
	o := New()
	o.AddSubClass("B", "A")
	o.AddSubClass("C", "A")
	o.AddSubClass("D", "B")
	o.AddSubClass("D", "C")
	if !o.IsSubClassOf("D", "A") {
		t.Fatal("diamond subsumption")
	}
	if o.IsSubClassOf("A", "D") || o.IsSubClassOf("B", "C") {
		t.Fatal("diamond inverted or across siblings")
	}
}

func TestLabelsAndClasses(t *testing.T) {
	o := New()
	o.AddClass("X", "the X")
	if o.Label("X") != "the X" {
		t.Fatal("label")
	}
	if o.Label("Y") != "" {
		t.Fatal("missing label")
	}
	o.AddSubClass("Y", "X")
	cs := o.Classes()
	if len(cs) != 2 || cs[0] != "X" {
		t.Fatalf("classes = %v", cs)
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	o := LandCoverOntology()
	triples := o.Triples()
	if len(triples) == 0 {
		t.Fatal("no triples")
	}
	var nt strings.Builder
	for _, tr := range triples {
		nt.WriteString(tr.String() + "\n")
	}
	back, err := rdf.ParseNTriples(strings.NewReader(nt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, triples) {
		t.Fatal("N-Triples round trip changed the triples")
	}
	for _, want := range []rdf.Triple{
		rdf.NewTriple(rdf.IRI(LandCover+"Lake"), rdf.IRI(rdf.RDFSSubClassOf), rdf.IRI(LandCover+"WaterBody")),
		rdf.NewTriple(rdf.IRI(LandCover+"Lake"), rdf.IRI(rdf.RDFSLabel), rdf.Literal("Lake")),
	} {
		if !slices.Contains(back, want) {
			t.Fatalf("missing %v", want)
		}
	}
}

func TestBuiltinOntologies(t *testing.T) {
	lc := LandCoverOntology()
	if !lc.IsSubClassOf(LandCover+"Sea", LandCover+"LandCover") {
		t.Fatal("sea is land cover")
	}
	mon := MonitoringOntology()
	if !mon.IsSubClassOf(Monitoring+"RefinedHotspot", Monitoring+"Observation") {
		t.Fatal("refined hotspot is an observation")
	}
	if !mon.IsSubClassOf(Monitoring+"ForestFire", Monitoring+"Event") {
		t.Fatal("forest fire is an event")
	}
	// Property triples present.
	found := false
	for _, tr := range mon.Triples() {
		if tr.P.Value == "http://www.w3.org/2000/01/rdf-schema#domain" {
			found = true
		}
	}
	if !found {
		t.Fatal("property domains missing")
	}
	_ = rdf.Term{}
}
