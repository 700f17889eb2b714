// Package geo implements the computational-geometry kernel used throughout
// the TELEIOS reproduction: OGC Simple Features geometry types, WKT and GML
// (de)serialisation, topological predicates in the style of DE-9IM, polygon
// clipping, metric operations and coordinate reference system support.
//
// The package is self-contained (stdlib only) and deterministic; it is the
// substrate below the stRDF spatial literals (internal/strdf), the R-tree
// (internal/rtree) and the NOA hotspot products (internal/noa).
package geo

import (
	"fmt"
	"math"
)

// GeometryType enumerates the OGC Simple Features types supported here.
type GeometryType int

// Supported geometry types.
const (
	TypePoint GeometryType = iota + 1
	TypeLineString
	TypePolygon
	TypeMultiPoint
	TypeMultiLineString
	TypeMultiPolygon
	TypeGeometryCollection
)

// String returns the canonical OGC name of the type (as used in WKT).
func (t GeometryType) String() string {
	switch t {
	case TypePoint:
		return "POINT"
	case TypeLineString:
		return "LINESTRING"
	case TypePolygon:
		return "POLYGON"
	case TypeMultiPoint:
		return "MULTIPOINT"
	case TypeMultiLineString:
		return "MULTILINESTRING"
	case TypeMultiPolygon:
		return "MULTIPOLYGON"
	case TypeGeometryCollection:
		return "GEOMETRYCOLLECTION"
	default:
		return fmt.Sprintf("GEOMETRYTYPE(%d)", int(t))
	}
}

// Geometry is the interface implemented by every geometry value.
//
// All geometries are immutable by convention: operations return new values
// and never mutate their receivers. Coordinates are planar; callers that
// hold geodetic (lon/lat) data use the CRS helpers for metric results.
type Geometry interface {
	// Type reports the geometry type tag.
	Type() GeometryType
	// Envelope reports the minimum bounding rectangle.
	Envelope() Envelope
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
	// Dimension reports the topological dimension: 0 for points,
	// 1 for curves, 2 for surfaces; collections report the maximum.
	Dimension() int
	// WKT serialises the geometry as OGC Well-Known Text.
	WKT() string
}

// Point is a 0-dimensional geometry: a single coordinate pair.
type Point struct {
	X, Y float64
}

// Type implements Geometry.
func (p Point) Type() GeometryType { return TypePoint }

// Envelope implements Geometry.
func (p Point) Envelope() Envelope { return Envelope{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y} }

// IsEmpty implements Geometry. A point constructed from NaN coordinates is
// the canonical empty point (POINT EMPTY parses to it).
func (p Point) IsEmpty() bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) }

// Dimension implements Geometry.
func (p Point) Dimension() int { return 0 }

// Equal reports coordinate equality within eps.
func (p Point) Equal(q Point) bool { return eqCoord(p.X, q.X) && eqCoord(p.Y, q.Y) }

// MultiPoint is a collection of points.
type MultiPoint struct {
	Points []Point
}

// Type implements Geometry.
func (m MultiPoint) Type() GeometryType { return TypeMultiPoint }

// Envelope implements Geometry.
func (m MultiPoint) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, p := range m.Points {
		env = env.ExtendPoint(p.X, p.Y)
	}
	return env
}

// IsEmpty implements Geometry.
func (m MultiPoint) IsEmpty() bool { return len(m.Points) == 0 }

// Dimension implements Geometry.
func (m MultiPoint) Dimension() int { return 0 }

// LineString is a 1-dimensional geometry: a polyline of 2+ coordinates.
type LineString struct {
	Coords []Point
}

// NewLineString returns a line string over a copy of coords.
func NewLineString(coords ...Point) LineString {
	c := make([]Point, len(coords))
	copy(c, coords)
	return LineString{Coords: c}
}

// Type implements Geometry.
func (l LineString) Type() GeometryType { return TypeLineString }

// Envelope implements Geometry.
func (l LineString) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, p := range l.Coords {
		env = env.ExtendPoint(p.X, p.Y)
	}
	return env
}

// IsEmpty implements Geometry.
func (l LineString) IsEmpty() bool { return len(l.Coords) == 0 }

// Dimension implements Geometry.
func (l LineString) Dimension() int { return 1 }

// Length reports the planar length of the polyline.
func (l LineString) Length() float64 {
	var sum float64
	for i := 1; i < len(l.Coords); i++ {
		sum += dist(l.Coords[i-1], l.Coords[i])
	}
	return sum
}

// MultiLineString is a collection of line strings.
type MultiLineString struct {
	Lines []LineString
}

// Type implements Geometry.
func (m MultiLineString) Type() GeometryType { return TypeMultiLineString }

// Envelope implements Geometry.
func (m MultiLineString) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, l := range m.Lines {
		env = env.Extend(l.Envelope())
	}
	return env
}

// IsEmpty implements Geometry.
func (m MultiLineString) IsEmpty() bool { return len(m.Lines) == 0 }

// Dimension implements Geometry.
func (m MultiLineString) Dimension() int { return 1 }

// Length reports the total planar length of the member lines.
func (m MultiLineString) Length() float64 {
	var sum float64
	for _, l := range m.Lines {
		sum += l.Length()
	}
	return sum
}

// Ring is a closed LineString used as a polygon boundary. The closing
// coordinate is stored explicitly (first == last), matching WKT conventions.
type Ring struct {
	Coords []Point
}

// NewRing builds a ring from coords, closing it if necessary.
func NewRing(coords ...Point) Ring {
	c := make([]Point, len(coords))
	copy(c, coords)
	if len(c) > 0 && !c[0].Equal(c[len(c)-1]) {
		c = append(c, c[0])
	}
	return Ring{Coords: c}
}

// SignedArea reports the signed area of the ring (positive when
// counter-clockwise).
func (r Ring) SignedArea() float64 {
	var sum float64
	n := len(r.Coords)
	if n < 4 {
		return 0
	}
	for i := 0; i < n-1; i++ {
		a, b := r.Coords[i], r.Coords[i+1]
		sum += a.X*b.Y - b.X*a.Y
	}
	return sum / 2
}

// Area reports the absolute area of the ring.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// IsCCW reports whether the ring winds counter-clockwise.
func (r Ring) IsCCW() bool { return r.SignedArea() > 0 }

// Reverse returns the ring with opposite winding.
func (r Ring) Reverse() Ring {
	c := make([]Point, len(r.Coords))
	for i, p := range r.Coords {
		c[len(r.Coords)-1-i] = p
	}
	return Ring{Coords: c}
}

// Envelope reports the ring's bounding box.
func (r Ring) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, p := range r.Coords {
		env = env.ExtendPoint(p.X, p.Y)
	}
	return env
}

// Polygon is a 2-dimensional geometry: an exterior ring plus zero or more
// interior rings (holes). By convention the exterior ring winds CCW and the
// holes CW; constructors normalise the winding.
type Polygon struct {
	Exterior Ring
	Holes    []Ring
}

// NewPolygon builds a polygon, normalising ring winding (exterior CCW,
// holes CW).
func NewPolygon(exterior Ring, holes ...Ring) Polygon {
	if !exterior.IsCCW() && exterior.SignedArea() != 0 {
		exterior = exterior.Reverse()
	}
	hs := make([]Ring, len(holes))
	for i, h := range holes {
		if h.IsCCW() {
			h = h.Reverse()
		}
		hs[i] = h
	}
	return Polygon{Exterior: exterior, Holes: hs}
}

// Rect returns the axis-aligned rectangle polygon for an envelope.
func Rect(minX, minY, maxX, maxY float64) Polygon {
	return NewPolygon(NewRing(
		Point{minX, minY}, Point{maxX, minY}, Point{maxX, maxY}, Point{minX, maxY},
	))
}

// Type implements Geometry.
func (p Polygon) Type() GeometryType { return TypePolygon }

// Envelope implements Geometry.
func (p Polygon) Envelope() Envelope { return p.Exterior.Envelope() }

// IsEmpty implements Geometry.
func (p Polygon) IsEmpty() bool { return len(p.Exterior.Coords) == 0 }

// Dimension implements Geometry.
func (p Polygon) Dimension() int { return 2 }

// Area reports the polygon area (exterior minus holes).
func (p Polygon) Area() float64 {
	a := p.Exterior.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// Perimeter reports the total boundary length, holes included.
func (p Polygon) Perimeter() float64 {
	sum := LineString{Coords: p.Exterior.Coords}.Length()
	for _, h := range p.Holes {
		sum += LineString{Coords: h.Coords}.Length()
	}
	return sum
}

// MultiPolygon is a collection of polygons.
type MultiPolygon struct {
	Polygons []Polygon
}

// Type implements Geometry.
func (m MultiPolygon) Type() GeometryType { return TypeMultiPolygon }

// Envelope implements Geometry.
func (m MultiPolygon) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, p := range m.Polygons {
		env = env.Extend(p.Envelope())
	}
	return env
}

// IsEmpty implements Geometry.
func (m MultiPolygon) IsEmpty() bool { return len(m.Polygons) == 0 }

// Dimension implements Geometry.
func (m MultiPolygon) Dimension() int { return 2 }

// Area reports the summed area of the member polygons.
func (m MultiPolygon) Area() float64 {
	var sum float64
	for _, p := range m.Polygons {
		sum += p.Area()
	}
	return sum
}

// GeometryCollection is a heterogeneous collection of geometries.
type GeometryCollection struct {
	Geometries []Geometry
}

// Type implements Geometry.
func (g GeometryCollection) Type() GeometryType { return TypeGeometryCollection }

// Envelope implements Geometry.
func (g GeometryCollection) Envelope() Envelope {
	env := EmptyEnvelope()
	for _, m := range g.Geometries {
		env = env.Extend(m.Envelope())
	}
	return env
}

// IsEmpty implements Geometry.
func (g GeometryCollection) IsEmpty() bool { return len(g.Geometries) == 0 }

// Dimension implements Geometry.
func (g GeometryCollection) Dimension() int {
	d := 0
	for _, m := range g.Geometries {
		if md := m.Dimension(); md > d {
			d = md
		}
	}
	return d
}

// Envelope is an axis-aligned minimum bounding rectangle. The zero value is
// not meaningful; use EmptyEnvelope for an identity under Extend.
type Envelope struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyEnvelope returns the identity envelope (inverted infinities) such
// that Extend of anything yields that thing.
func EmptyEnvelope() Envelope {
	return Envelope{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether the envelope contains no points.
func (e Envelope) IsEmpty() bool { return e.MinX > e.MaxX || e.MinY > e.MaxY }

// Width reports MaxX-MinX (0 for empty envelopes).
func (e Envelope) Width() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxX - e.MinX
}

// Height reports MaxY-MinY (0 for empty envelopes).
func (e Envelope) Height() float64 {
	if e.IsEmpty() {
		return 0
	}
	return e.MaxY - e.MinY
}

// Area reports the envelope area.
func (e Envelope) Area() float64 { return e.Width() * e.Height() }

// ExtendPoint returns the envelope grown to include (x, y).
func (e Envelope) ExtendPoint(x, y float64) Envelope {
	return Envelope{
		MinX: math.Min(e.MinX, x), MinY: math.Min(e.MinY, y),
		MaxX: math.Max(e.MaxX, x), MaxY: math.Max(e.MaxY, y),
	}
}

// Extend returns the union of two envelopes.
func (e Envelope) Extend(o Envelope) Envelope {
	if o.IsEmpty() {
		return e
	}
	if e.IsEmpty() {
		return o
	}
	return Envelope{
		MinX: math.Min(e.MinX, o.MinX), MinY: math.Min(e.MinY, o.MinY),
		MaxX: math.Max(e.MaxX, o.MaxX), MaxY: math.Max(e.MaxY, o.MaxY),
	}
}

// Intersects reports whether two envelopes share any point.
func (e Envelope) Intersects(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MaxX && o.MinX <= e.MaxX && e.MinY <= o.MaxY && o.MinY <= e.MaxY
}

// Contains reports whether o lies fully inside e (boundaries included).
func (e Envelope) Contains(o Envelope) bool {
	if e.IsEmpty() || o.IsEmpty() {
		return false
	}
	return e.MinX <= o.MinX && o.MaxX <= e.MaxX && e.MinY <= o.MinY && o.MaxY <= e.MaxY
}

// ContainsPoint reports whether (x, y) lies inside e (boundaries included).
func (e Envelope) ContainsPoint(x, y float64) bool {
	return !e.IsEmpty() && e.MinX <= x && x <= e.MaxX && e.MinY <= y && y <= e.MaxY
}

// Intersection returns the overlapping region of two envelopes
// (possibly empty).
func (e Envelope) Intersection(o Envelope) Envelope {
	r := Envelope{
		MinX: math.Max(e.MinX, o.MinX), MinY: math.Max(e.MinY, o.MinY),
		MaxX: math.Min(e.MaxX, o.MaxX), MaxY: math.Min(e.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyEnvelope()
	}
	return r
}

// Center reports the envelope centroid.
func (e Envelope) Center() Point { return Point{(e.MinX + e.MaxX) / 2, (e.MinY + e.MaxY) / 2} }

// ToPolygon converts the envelope to a rectangle polygon.
func (e Envelope) ToPolygon() Polygon { return Rect(e.MinX, e.MinY, e.MaxX, e.MaxY) }

// eps is the coordinate comparison tolerance used across the package.
// Satellite pixel footprints in the demo are O(1e-2) degrees, so 1e-9 is
// far below any meaningful coordinate difference yet above float noise.
const eps = 1e-9

func eqCoord(a, b float64) bool { return math.Abs(a-b) <= eps }

func dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }
