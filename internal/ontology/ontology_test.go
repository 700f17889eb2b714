package ontology

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func TestDuplicateSubclassIgnored(t *testing.T) {
	o := New()
	o.AddSubClass("B", "A")
	o.AddSubClass("B", "A")
	if got := o.super["B"]; len(got) != 1 {
		t.Fatalf("direct superclasses = %v", got)
	}
}

func TestLabelsAndClasses(t *testing.T) {
	o := New()
	o.AddClass("X", "the X")
	if o.labels["X"] != "the X" {
		t.Fatal("label")
	}
	if o.labels["Y"] != "" {
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
	// chain checks that each class is a direct subclass of the next.
	chain := func(o *Ontology, ns string, classes ...string) {
		for i := 0; i+1 < len(classes); i++ {
			if !slices.Contains(o.super[ns+classes[i]], ns+classes[i+1]) {
				t.Fatalf("%s is not a direct subclass of %s", classes[i], classes[i+1])
			}
		}
	}
	chain(LandCoverOntology(), LandCover, "Sea", "WaterBody", "LandCover")
	mon := MonitoringOntology()
	chain(mon, Monitoring, "RefinedHotspot", "Hotspot", "Observation")
	chain(mon, Monitoring, "ForestFire", "Fire", "Event")
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
