// Package scene defines the deterministic synthetic geography that stands
// in for the proprietary data TELEIOS consumed: the MSG/SEVIRI feed, the
// GeoNames/LinkedGeoData auxiliary layers and NOA's GIS data. One shared
// definition keeps the raster generator (internal/raster) and the linked
// data generators (internal/linkeddata) mutually consistent, so that the
// Scenario 2 refinement genuinely removes the sea-side false positives the
// raster generator seeds.
//
// The geography is Greece-shaped in spirit: a landmass with an irregular
// coastline inside lon [21, 27], lat [36, 40] (WGS84), dotted with towns,
// archaeological sites, forests and a road network.
package scene

import (
	"math"

	"repro/internal/geo"
)

// Region is the area of interest of the Virtual Earth Observatory demo.
var Region = geo.Envelope{MinX: 21, MinY: 36, MaxX: 27, MaxY: 40}

// landCenter and land radii parameterise the synthetic coastline.
const (
	landCenterX = 24.0
	landCenterY = 38.0
)

// Landmass returns the synthetic landmass polygon. The coastline is a
// closed radial curve r(theta) with two harmonics, giving bays and
// peninsulas that produce coastal mixed pixels — the false-positive source
// the refinement step corrects.
func Landmass() geo.Polygon {
	const n = 180
	cs := make([]geo.Point, 0, n+1)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / n
		r := 1.55 + 0.35*math.Sin(3*th) + 0.18*math.Sin(7*th+1.3)
		cs = append(cs, geo.Point{
			X: landCenterX + r*math.Cos(th),
			Y: landCenterY + 0.75*r*math.Sin(th),
		})
	}
	cs = append(cs, cs[0])
	return geo.NewPolygon(geo.Ring{Coords: cs})
}

// Sea returns the region minus the landmass, as a polygon with a hole.
func Sea() geo.Geometry {
	sea, err := geo.Difference(Region.ToPolygon(), Landmass())
	if err != nil {
		// The landmass is strictly inside the region; Difference cannot
		// fail on this fixed input.
		panic(err)
	}
	return sea
}

// Site is a named point of interest (archaeological site or town).
type Site struct {
	Name string
	Loc  geo.Point
	// Population is non-zero for towns.
	Population int
}

// ArchaeologicalSites returns the synthetic archaeological sites, all on
// land. The flagship §1 query searches for fires within 2 km of these.
func ArchaeologicalSites() []Site {
	return []Site{
		{Name: "Olympia", Loc: geo.Point{X: 23.05, Y: 37.64}},
		{Name: "Mycenae", Loc: geo.Point{X: 24.32, Y: 37.73}},
		{Name: "Epidaurus", Loc: geo.Point{X: 24.55, Y: 37.60}},
		{Name: "Delphi", Loc: geo.Point{X: 23.52, Y: 38.48}},
		{Name: "Dodona", Loc: geo.Point{X: 23.20, Y: 38.90}},
		{Name: "Eleusis", Loc: geo.Point{X: 24.70, Y: 38.04}},
		{Name: "Tegea", Loc: geo.Point{X: 23.86, Y: 37.46}},
		{Name: "Corinth", Loc: geo.Point{X: 24.52, Y: 37.94}},
	}
}

// Towns returns the synthetic populated places.
func Towns() []Site {
	return []Site{
		{Name: "Alpha", Loc: geo.Point{X: 23.4, Y: 37.9}, Population: 120000},
		{Name: "Bravo", Loc: geo.Point{X: 24.1, Y: 38.3}, Population: 68000},
		{Name: "Charlie", Loc: geo.Point{X: 24.8, Y: 37.8}, Population: 45000},
		{Name: "Delta", Loc: geo.Point{X: 23.0, Y: 38.3}, Population: 31000},
		{Name: "Echo", Loc: geo.Point{X: 24.4, Y: 38.7}, Population: 27000},
		{Name: "Foxtrot", Loc: geo.Point{X: 23.7, Y: 37.4}, Population: 19000},
		{Name: "Golf", Loc: geo.Point{X: 25.0, Y: 38.2}, Population: 15000},
		{Name: "Hotel", Loc: geo.Point{X: 23.2, Y: 38.6}, Population: 12000},
		{Name: "India", Loc: geo.Point{X: 24.6, Y: 38.45}, Population: 9000},
		{Name: "Juliet", Loc: geo.Point{X: 23.9, Y: 38.85}, Population: 7000},
	}
}

// Forest is a named forest polygon (CORINE-style land cover).
type Forest struct {
	Name    string
	Area    geo.Polygon
	Species string
}

// Forests returns the synthetic forest land-cover polygons, all on land.
func Forests() []Forest {
	rect := func(x, y, w, h float64) geo.Polygon { return geo.Rect(x, y, x+w, y+h) }
	return []Forest{
		{Name: "PineForestNorth", Area: rect(23.6, 38.35, 0.45, 0.3), Species: "pinus halepensis"},
		{Name: "OakForestWest", Area: rect(23.1, 37.9, 0.3, 0.3), Species: "quercus"},
		{Name: "FirForestEast", Area: rect(24.4, 38.0, 0.45, 0.3), Species: "abies cephalonica"},
		{Name: "MixedForestSouth", Area: rect(23.85, 37.35, 0.45, 0.25), Species: "mixed"},
	}
}

// Road is a named road polyline.
type Road struct {
	Name string
	Path geo.LineString
}

// Roads returns the synthetic road network (OpenStreetMap stand-in).
func Roads() []Road {
	return []Road{
		{Name: "A1", Path: geo.NewLineString(
			geo.Point{X: 23.4, Y: 37.4}, geo.Point{X: 23.7, Y: 37.9},
			geo.Point{X: 24.1, Y: 38.3}, geo.Point{X: 24.4, Y: 38.7})},
		{Name: "A2", Path: geo.NewLineString(
			geo.Point{X: 23.0, Y: 38.3}, geo.Point{X: 23.6, Y: 38.35},
			geo.Point{X: 24.1, Y: 38.3}, geo.Point{X: 24.8, Y: 38.2})},
		{Name: "E55", Path: geo.NewLineString(
			geo.Point{X: 24.8, Y: 37.8}, geo.Point{X: 24.55, Y: 37.6},
			geo.Point{X: 23.86, Y: 37.46}, geo.Point{X: 23.05, Y: 37.64})},
	}
}

// FireEvent seeds a synthetic fire in the raster generator: a location,
// the frame index when it ignites, its peak intensity in kelvin above
// background, and its pixel radius growth rate per frame.
type FireEvent struct {
	Name      string
	Loc       geo.Point
	StartStep int
	PeakDT    float64
	Growth    float64
	// Spurious marks sea-side false positives (coastal mixed pixels) that
	// the refinement step is expected to remove.
	Spurious bool
}

// FireEvents returns the demo's seeded fire scenario: three real fires on
// land (two near archaeological sites) and two spurious coastal hot pixels
// in the sea.
func FireEvents() []FireEvent {
	return []FireEvent{
		// ~1.5 km east of Olympia: matches the "fire within 2 km of an
		// archaeological site" flagship query.
		{Name: "OlympiaFire", Loc: geo.Point{X: 23.067, Y: 37.64}, StartStep: 1, PeakDT: 40, Growth: 0.8},
		// Inside PineForestNorth.
		{Name: "PineFire", Loc: geo.Point{X: 23.9, Y: 38.6}, StartStep: 0, PeakDT: 55, Growth: 1.2},
		// Open land, far from sites.
		{Name: "RangeFire", Loc: geo.Point{X: 24.9, Y: 38.35}, StartStep: 3, PeakDT: 35, Growth: 0.6},
		// Spurious: in the sea just off the western coast.
		{Name: "GlintWest", Loc: geo.Point{X: 21.9, Y: 37.9}, StartStep: 2, PeakDT: 45, Growth: 0.3, Spurious: true},
		// Spurious: in the sea in a southern bay.
		{Name: "GlintSouth", Loc: geo.Point{X: 24.2, Y: 36.6}, StartStep: 0, PeakDT: 42, Growth: 0.3, Spurious: true},
	}
}

// OnLandAnalytic evaluates land membership directly from the coastline's
// radial definition, avoiding point-in-polygon work in per-pixel loops.
// It agrees with geo.Intersects(p, Landmass()) up to the polygon's 2-degree discretisation.
func OnLandAnalytic(p geo.Point) bool {
	dx := p.X - landCenterX
	dy := (p.Y - landCenterY) / 0.75
	th := math.Atan2(dy, dx)
	r := 1.55 + 0.35*math.Sin(3*th) + 0.18*math.Sin(7*th+1.3)
	return math.Hypot(dx, dy) <= r
}
