// Package linkeddata generates the auxiliary linked open data the paper
// joins EO products against: GeoNames-style populated places and
// archaeological sites, LinkedGeoData/OpenStreetMap-style roads, a CORINE
// land-cover layer, and the coastline/sea mask used by the refinement
// step. All datasets derive from the shared synthetic scene
// (internal/scene), as stRDF triples ready for a Strabon store.
package linkeddata

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/scene"
	"repro/internal/strdf"
)

// Namespaces of the synthetic datasets.
const (
	GeoNamesNS = "http://sws.geonames.org/teleios/"
	LGDNS      = "http://linkedgeodata.org/teleios/"
	CorineNS   = "http://geo.linkedopendata.gr/corine/"
	CoastNS    = "http://geo.linkedopendata.gr/coastline/"

	// Shared predicates.
	PropGeometry   = "http://teleios.di.uoa.gr/noa#hasGeometry"
	PropName       = "http://www.w3.org/2000/01/rdf-schema#label"
	PropPopulation = GeoNamesNS + "population"

	// Classes.
	ClassSite     = GeoNamesNS + "ArchaeologicalSite"
	ClassTown     = GeoNamesNS + "PopulatedPlace"
	ClassRoad     = LGDNS + "Road"
	ClassSea      = CoastNS + "Sea"
	ClassLandmass = CoastNS + "Landmass"
)

// GeoNames emits archaeological sites and towns as linked data.
func GeoNames() []rdf.Triple {
	var out []rdf.Triple
	for _, s := range scene.ArchaeologicalSites() {
		iri := rdf.IRI(GeoNamesNS + "site/" + s.Name)
		out = append(out,
			rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(ClassSite)),
			rdf.NewTriple(iri, rdf.IRI(PropName), rdf.Literal(s.Name)),
			rdf.NewTriple(iri, rdf.IRI(PropGeometry), strdf.Literal(s.Loc, geo.SRIDWGS84)),
		)
	}
	for _, t := range scene.Towns() {
		iri := rdf.IRI(GeoNamesNS + "town/" + t.Name)
		out = append(out,
			rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(ClassTown)),
			rdf.NewTriple(iri, rdf.IRI(PropName), rdf.Literal(t.Name)),
			rdf.NewTriple(iri, rdf.IRI(PropGeometry), strdf.Literal(t.Loc, geo.SRIDWGS84)),
			rdf.NewTriple(iri, rdf.IRI(PropPopulation), rdf.IntegerLiteral(int64(t.Population))),
		)
	}
	return out
}

// LinkedGeoData emits the road network.
func LinkedGeoData() []rdf.Triple {
	var out []rdf.Triple
	for _, r := range scene.Roads() {
		iri := rdf.IRI(LGDNS + "road/" + r.Name)
		out = append(out,
			rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(ClassRoad)),
			rdf.NewTriple(iri, rdf.IRI(PropName), rdf.Literal(r.Name)),
			rdf.NewTriple(iri, rdf.IRI(PropGeometry), strdf.Literal(r.Path, geo.SRIDWGS84)),
		)
	}
	return out
}

// Corine emits the land-cover polygons typed with the land-cover
// ontology's forest classes.
func Corine() []rdf.Triple {
	var out []rdf.Triple
	for i, f := range scene.Forests() {
		iri := rdf.IRI(fmt.Sprintf("%sarea/%d", CorineNS, i+1))
		out = append(out,
			rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(ontology.LandCover+"Forest")),
			rdf.NewTriple(iri, rdf.IRI(PropName), rdf.Literal(f.Name)),
			rdf.NewTriple(iri, rdf.IRI(PropGeometry), strdf.Literal(f.Area, geo.SRIDWGS84)),
			rdf.NewTriple(iri, rdf.IRI(CorineNS+"species"), rdf.Literal(f.Species)),
		)
	}
	return out
}

// Coastline emits the sea mask (the region minus the landmass) and the
// landmass polygon — the geospatial layer the refinement subtracts
// hotspot geometries against.
func Coastline() []rdf.Triple {
	sea := rdf.IRI(CoastNS + "sea")
	land := rdf.IRI(CoastNS + "landmass")
	return []rdf.Triple{
		rdf.NewTriple(sea, rdf.IRI(rdf.RDFType), rdf.IRI(ClassSea)),
		rdf.NewTriple(sea, rdf.IRI(PropGeometry), strdf.Literal(scene.Sea(), geo.SRIDWGS84)),
		rdf.NewTriple(land, rdf.IRI(rdf.RDFType), rdf.IRI(ClassLandmass)),
		rdf.NewTriple(land, rdf.IRI(PropGeometry), strdf.Literal(scene.Landmass(), geo.SRIDWGS84)),
	}
}

// All concatenates every dataset plus the two domain ontologies.
func All() []rdf.Triple {
	var out []rdf.Triple
	out = append(out, GeoNames()...)
	out = append(out, LinkedGeoData()...)
	out = append(out, Corine()...)
	out = append(out, Coastline()...)
	out = append(out, ontology.LandCoverOntology().Triples()...)
	out = append(out, ontology.MonitoringOntology().Triples()...)
	return out
}

// SyntheticSites generates n additional archaeological sites on a
// deterministic grid over the landmass, for catalogue-scaling benchmarks
// (Figure 3 / Q1 sweeps). Sites falling in the sea are skipped, so fewer
// than n may be returned.
//
//lint:allow unreachable(bench/dataset.go generates the benchmark's site layer with it)
func SyntheticSites(n int) []rdf.Triple {
	var out []rdf.Triple
	made := 0
	for i := 0; made < n; i++ {
		// Low-discrepancy-ish placement over the region.
		fx := float64(i%97) / 97
		fy := float64((i*37)%89) / 89
		p := geo.Point{
			X: scene.Region.MinX + fx*scene.Region.Width(),
			Y: scene.Region.MinY + fy*scene.Region.Height(),
		}
		if !scene.OnLandAnalytic(p) {
			if i > n*20 {
				break // landmass saturated; avoid spinning
			}
			continue
		}
		iri := rdf.IRI(fmt.Sprintf("%ssite/synthetic-%d", GeoNamesNS, made))
		out = append(out,
			rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(ClassSite)),
			rdf.NewTriple(iri, rdf.IRI(PropName), rdf.Literal(fmt.Sprintf("Synthetic site %d", made))),
			rdf.NewTriple(iri, rdf.IRI(PropGeometry), strdf.Literal(p, geo.SRIDWGS84)),
		)
		made++
	}
	return out
}
