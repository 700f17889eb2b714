package noa

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geo"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

// Fire map generation: the demo's final step assembles a map of the
// active hotspots enriched with relevant geo-information from the linked
// open data (towns, roads, archaeological sites, forests near the fires),
// entirely through stSPARQL queries. The map serialises as GeoJSON.

// Feature is one map feature: a geometry plus properties.
type Feature struct {
	Layer      string
	Geometry   geo.Geometry
	Properties map[string]string
}

// FireMap is a layered map document.
type FireMap struct {
	Features []Feature
}

// Layer returns the features of one layer.
func (m *FireMap) Layer(name string) []Feature {
	var out []Feature
	for _, f := range m.Features {
		if f.Layer == name {
			out = append(out, f)
		}
	}
	return out
}

// BuildFireMap assembles the fire map: all (refined) hotspots, plus the
// auxiliary features within radiusMeters of any hotspot.
func BuildFireMap(eng *stsparql.Engine, radiusMeters float64) (*FireMap, error) {
	m := &FireMap{}
	// 1. Hotspots (still typed mon:Hotspot after refinement).
	hs, err := eng.Query(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX mon: <http://teleios.di.uoa.gr/monitoring#>
		SELECT ?h ?g ?c WHERE {
			?h a mon:Hotspot .
			?h noa:hasGeometry ?g .
			?h noa:hasConfidence ?c .
		} ORDER BY ?h`)
	if err != nil {
		return nil, fmt.Errorf("noa: firemap hotspots: %w", err)
	}
	var hotGeoms []geo.Geometry
	for _, b := range hs.Bindings {
		v, err := strdf.ParseSpatial(b["g"])
		if err != nil {
			continue
		}
		hotGeoms = append(hotGeoms, v.Geom)
		m.Features = append(m.Features, Feature{
			Layer:    "hotspots",
			Geometry: v.Geom,
			Properties: map[string]string{
				"iri":        b["h"].Value,
				"confidence": b["c"].Value,
			},
		})
	}
	if len(hotGeoms) == 0 {
		return m, nil
	}
	// 2. Auxiliary layers near the fires, one stSPARQL query per layer.
	layers := []struct {
		layer string
		class string
	}{
		{"towns", "http://sws.geonames.org/teleios/PopulatedPlace"},
		{"sites", "http://sws.geonames.org/teleios/ArchaeologicalSite"},
		{"roads", "http://linkedgeodata.org/teleios/Road"},
		{"forests", "http://teleios.di.uoa.gr/landcover#Forest"},
	}
	for _, l := range layers {
		feats, err := nearbyFeatures(eng, l.class, l.layer, hotGeoms, radiusMeters)
		if err != nil {
			return nil, err
		}
		m.Features = append(m.Features, feats...)
	}
	return m, nil
}

// nearbyFeatures queries one auxiliary class and keeps instances within
// radiusMeters of any hotspot geometry.
func nearbyFeatures(eng *stsparql.Engine, class, layer string, hot []geo.Geometry, radius float64) ([]Feature, error) {
	res, err := eng.Query(fmt.Sprintf(`
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
		SELECT ?x ?g ?label WHERE {
			?x a <%s> .
			?x noa:hasGeometry ?g .
			OPTIONAL { ?x rdfs:label ?label }
		} ORDER BY ?x`, class))
	if err != nil {
		return nil, fmt.Errorf("noa: firemap layer %s: %w", layer, err)
	}
	var out []Feature
	for _, b := range res.Bindings {
		v, err := strdf.ParseSpatial(b["g"])
		if err != nil {
			continue
		}
		near := false
		for _, hg := range hot {
			if geo.GeodesicDistanceMeters(v.Geom, hg) <= radius {
				near = true
				break
			}
		}
		if !near {
			continue
		}
		props := map[string]string{"iri": b["x"].Value}
		if lbl, ok := b["label"]; ok {
			props["name"] = lbl.Value
		}
		out = append(out, Feature{Layer: layer, Geometry: v.Geom, Properties: props})
	}
	return out, nil
}

// WriteGeoJSON serialises the map as a GeoJSON FeatureCollection.
func (m *FireMap) WriteGeoJSON(w io.Writer) error {
	type gjGeom struct {
		Type        string `json:"type"`
		Coordinates any    `json:"coordinates"`
	}
	type gjFeature struct {
		Type       string            `json:"type"`
		Geometry   *gjGeom           `json:"geometry"`
		Properties map[string]string `json:"properties"`
	}
	type gjFC struct {
		Type     string      `json:"type"`
		Features []gjFeature `json:"features"`
	}
	fc := gjFC{Type: "FeatureCollection"}
	for _, f := range m.Features {
		typ, coords, err := toGeoJSON(f.Geometry)
		if err != nil {
			return err
		}
		props := map[string]string{"layer": f.Layer}
		for k, v := range f.Properties {
			props[k] = v
		}
		fc.Features = append(fc.Features, gjFeature{
			Type:       "Feature",
			Geometry:   &gjGeom{Type: typ, Coordinates: coords},
			Properties: props,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(fc)
}

// toGeoJSON maps a geometry to its GeoJSON type tag and coordinates value.
func toGeoJSON(g geo.Geometry) (string, any, error) {
	wrap := func(t string, c any) (string, any, error) { return t, c, nil }
	pt := func(p geo.Point) []float64 { return []float64{round6(p.X), round6(p.Y)} }
	line := func(cs []geo.Point) [][]float64 {
		out := make([][]float64, len(cs))
		for i, c := range cs {
			out[i] = pt(c)
		}
		return out
	}
	poly := func(p geo.Polygon) [][][]float64 {
		out := [][][]float64{line(p.Exterior.Coords)}
		for _, h := range p.Holes {
			out = append(out, line(h.Coords))
		}
		return out
	}
	switch t := g.(type) {
	case geo.Point:
		return wrap("Point", pt(t))
	case geo.MultiPoint:
		return wrap("MultiPoint", line(t.Points))
	case geo.LineString:
		return wrap("LineString", line(t.Coords))
	case geo.MultiLineString:
		var cs [][][]float64
		for _, l := range t.Lines {
			cs = append(cs, line(l.Coords))
		}
		return wrap("MultiLineString", cs)
	case geo.Polygon:
		return wrap("Polygon", poly(t))
	case geo.MultiPolygon:
		var cs [][][][]float64
		for _, p := range t.Polygons {
			cs = append(cs, poly(p))
		}
		return wrap("MultiPolygon", cs)
	default:
		return "", nil, fmt.Errorf("noa: geometry type %T has no GeoJSON form", g)
	}
}

func round6(f float64) float64 {
	s := strconv.FormatFloat(f, 'f', 6, 64)
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// StoreProduct inserts a product's hotspot triples into the engine's
// store, returning the number of new triples.
func StoreProduct(eng *stsparql.Engine, p *Product) int {
	return eng.Store().AddAll(p.Triples())
}
