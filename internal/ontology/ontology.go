// Package ontology implements the OWL/RDFS-subset ontology machinery of
// the TELEIOS knowledge tier: class hierarchies, property domains and
// ranges, and the specific domain ontologies the paper names — a
// land-cover ontology (water body, lake, forest, ...) and an
// environmental-monitoring ontology (fire, burned area, flood, ...) —
// used to annotate EO products.
package ontology

import (
	"sort"

	"repro/internal/rdf"
)

// Namespaces of the built-in domain ontologies.
const (
	// NOA is the namespace of hotspot products and annotations.
	NOA = "http://teleios.di.uoa.gr/noa#"
	// LandCover is the land-cover ontology namespace.
	LandCover = "http://teleios.di.uoa.gr/landcover#"
	// Monitoring is the environmental-monitoring ontology namespace.
	Monitoring = "http://teleios.di.uoa.gr/monitoring#"
)

// Ontology is a class taxonomy. The zero value is unusable; call New.
type Ontology struct {
	// super maps class IRI -> direct superclass IRIs.
	super map[string][]string
	// labels maps class IRI -> human-readable label.
	labels map[string]string
	// properties maps property IRI -> (domain, range) class IRIs.
	domains map[string]string
	ranges  map[string]string
}

// New returns an empty ontology.
func New() *Ontology {
	return &Ontology{
		super:   map[string][]string{},
		labels:  map[string]string{},
		domains: map[string]string{},
		ranges:  map[string]string{},
	}
}

// AddClass declares a class with an optional label.
func (o *Ontology) AddClass(iri, label string) {
	if _, ok := o.super[iri]; !ok {
		o.super[iri] = nil
	}
	if label != "" {
		o.labels[iri] = label
	}
}

// AddSubClass declares sub rdfs:subClassOf super (both classes are
// declared implicitly).
func (o *Ontology) AddSubClass(sub, super string) {
	o.AddClass(sub, "")
	o.AddClass(super, "")
	for _, s := range o.super[sub] {
		if s == super {
			return
		}
	}
	o.super[sub] = append(o.super[sub], super)
}

// AddProperty declares a property with a domain and range class.
func (o *Ontology) AddProperty(iri, domain, rng string) {
	o.domains[iri] = domain
	o.ranges[iri] = rng
}

// Classes returns all declared class IRIs, sorted.
func (o *Ontology) Classes() []string {
	out := make([]string, 0, len(o.super))
	for c := range o.super {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Triples serialises the ontology as RDFS triples (rdf:type owl:Class,
// rdfs:subClassOf, rdfs:label, rdfs:domain, rdfs:range).
func (o *Ontology) Triples() []rdf.Triple {
	const (
		owlClass  = "http://www.w3.org/2002/07/owl#Class"
		rdfsDom   = "http://www.w3.org/2000/01/rdf-schema#domain"
		rdfsRange = "http://www.w3.org/2000/01/rdf-schema#range"
	)
	var out []rdf.Triple
	for _, c := range o.Classes() {
		out = append(out, rdf.NewTriple(rdf.IRI(c), rdf.IRI(rdf.RDFType), rdf.IRI(owlClass)))
		if l := o.labels[c]; l != "" {
			out = append(out, rdf.NewTriple(rdf.IRI(c), rdf.IRI(rdf.RDFSLabel), rdf.Literal(l)))
		}
		supers := append([]string(nil), o.super[c]...)
		sort.Strings(supers)
		for _, s := range supers {
			out = append(out, rdf.NewTriple(rdf.IRI(c), rdf.IRI(rdf.RDFSSubClassOf), rdf.IRI(s)))
		}
	}
	props := make([]string, 0, len(o.domains))
	for p := range o.domains {
		props = append(props, p)
	}
	sort.Strings(props)
	for _, p := range props {
		out = append(out, rdf.NewTriple(rdf.IRI(p), rdf.IRI(rdfsDom), rdf.IRI(o.domains[p])))
		out = append(out, rdf.NewTriple(rdf.IRI(p), rdf.IRI(rdfsRange), rdf.IRI(o.ranges[p])))
	}
	return out
}

// LandCoverOntology builds the land-cover taxonomy the paper sketches:
// water bodies (lake, sea, river), vegetation (forest subtypes, cropland),
// artificial surfaces.
func LandCoverOntology() *Ontology {
	o := New()
	lc := func(s string) string { return LandCover + s }
	o.AddClass(lc("LandCover"), "land cover")
	for sub, super := range map[string]string{
		"WaterBody":         "LandCover",
		"Lake":              "WaterBody",
		"Sea":               "WaterBody",
		"River":             "WaterBody",
		"Vegetation":        "LandCover",
		"Forest":            "Vegetation",
		"ConiferousForest":  "Forest",
		"BroadleavedForest": "Forest",
		"Cropland":          "Vegetation",
		"Grassland":         "Vegetation",
		"Artificial":        "LandCover",
		"UrbanFabric":       "Artificial",
		"Industrial":        "Artificial",
		"BareSoil":          "LandCover",
	} {
		o.AddSubClass(lc(sub), lc(super))
		o.AddClass(lc(sub), sub)
	}
	return o
}

// MonitoringOntology builds the environmental-monitoring taxonomy: events
// (fire, flood), observations (hotspot, burned area) and products.
func MonitoringOntology() *Ontology {
	o := New()
	m := func(s string) string { return Monitoring + s }
	o.AddClass(m("Event"), "environmental event")
	for sub, super := range map[string]string{
		"Fire":             "Event",
		"ForestFire":       "Fire",
		"AgriculturalFire": "Fire",
		"Flood":            "Event",
		"Observation":      "Event",
		"Hotspot":          "Observation",
		"BurnedArea":       "Observation",
		"RefinedHotspot":   "Hotspot",
		"RejectedHotspot":  "Observation",
	} {
		o.AddSubClass(m(sub), m(super))
		o.AddClass(m(sub), sub)
	}
	o.AddProperty(m("observedBy"), m("Observation"), NOA+"Sensor")
	o.AddProperty(m("correspondsTo"), m("Hotspot"), m("Fire"))
	return o
}
