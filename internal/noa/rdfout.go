package noa

import (
	"time"

	"repro/internal/geo"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// NOA product vocabulary. Hotspots are typed with the monitoring
// ontology's Hotspot class so that subsumption queries over observations
// also retrieve them.
const (
	NS             = "http://teleios.di.uoa.gr/noa#"
	ClassHotspot   = ontology.Monitoring + "Hotspot"
	PropGeometry   = NS + "hasGeometry"
	PropConfidence = NS + "hasConfidence"
	PropSensor     = NS + "inSensor"
	PropAcquired   = NS + "acquiredAt"
	PropDerived    = NS + "derivedFromProduct"
	PropPixels     = NS + "pixelCount"
	// PropValidTime carries the stRDF valid-time period of the detection:
	// the acquisition instant until the next SEVIRI repeat cycle.
	PropValidTime = NS + "validTime"
)

// HotspotIRI returns the resource IRI of a hotspot.
func HotspotIRI(h Hotspot) rdf.Term { return rdf.IRI(NS + "hotspot/" + h.ID) }

// ProductIRI returns the resource IRI of the source product.
func ProductIRI(frameID string) rdf.Term { return rdf.IRI(NS + "product/" + frameID) }

// Triples serialises a product's hotspots as stRDF.
func (p *Product) Triples() []rdf.Triple {
	var out []rdf.Triple
	for _, h := range p.Hotspots {
		out = append(out, HotspotTriples(h)...)
	}
	return out
}

// HotspotTriples serialises one hotspot.
func HotspotTriples(h Hotspot) []rdf.Triple {
	s := HotspotIRI(h)
	return []rdf.Triple{
		rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI(ClassHotspot)),
		rdf.NewTriple(s, rdf.IRI(PropGeometry), strdf.Literal(h.Geometry, geo.SRIDWGS84)),
		rdf.NewTriple(s, rdf.IRI(PropConfidence), rdf.DoubleLiteral(h.Confidence)),
		rdf.NewTriple(s, rdf.IRI(PropSensor), rdf.Literal(h.Sensor)),
		rdf.NewTriple(s, rdf.IRI(PropAcquired),
			rdf.TypedLiteral(h.Time.UTC().Format(time.RFC3339), rdf.XSDDateTime)),
		rdf.NewTriple(s, rdf.IRI(PropDerived), ProductIRI(h.FrameID)),
		rdf.NewTriple(s, rdf.IRI(PropPixels), rdf.IntegerLiteral(int64(h.PixelCount))),
		rdf.NewTriple(s, rdf.IRI(PropValidTime), strdf.PeriodLiteral(strdf.Period{
			Start: h.Time.UTC(),
			End:   h.Time.UTC().Add(15 * time.Minute),
		})),
	}
}
