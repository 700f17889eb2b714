package geo

import (
	"fmt"
	"math"
)

// Coordinate reference system support. stRDF spatial literals carry an
// EPSG SRID; the Earth Observatory works in WGS84 (EPSG:4326) and projects
// into Web Mercator (EPSG:3857) or the Greek Grid (EPSG:2100, approximated
// by a transverse-Mercator-like projection) for metric computations.

// SRID identifies a coordinate reference system by its EPSG code.
type SRID int

// Supported reference systems.
const (
	// SRIDWGS84 is geodetic longitude/latitude in degrees (EPSG:4326),
	// the default CRS of stRDF literals.
	SRIDWGS84 SRID = 4326
	// SRIDWebMercator is spherical Mercator in metres (EPSG:3857).
	SRIDWebMercator SRID = 3857
	// SRIDGreekGrid approximates the Greek Grid (EPSG:2100) in metres;
	// the NOA products of the demo are georeferenced to it.
	SRIDGreekGrid SRID = 2100
	// SRIDCRS84 is the OGC urn for WGS84 with lon/lat axis order; treated
	// as an alias of EPSG:4326 here.
	SRIDCRS84 SRID = 84
)

const (
	earthRadiusM = 6378137.0
	deg2rad      = math.Pi / 180
	rad2deg      = 180 / math.Pi
	// Greek Grid central meridian and false easting (GGRS87 / TM87).
	ggCentralMeridian = 24.0
	ggFalseEasting    = 500000.0
	ggScale           = 0.9996
)

// KnownSRID reports whether this package can transform to/from s.
func KnownSRID(s SRID) bool {
	switch s {
	case SRIDWGS84, SRIDWebMercator, SRIDGreekGrid, SRIDCRS84:
		return true
	}
	return false
}

// Transform reprojects g from one CRS to another. Unknown SRIDs yield an
// error; identical SRIDs return g unchanged.
func Transform(g Geometry, from, to SRID) (Geometry, error) {
	if from == SRIDCRS84 {
		from = SRIDWGS84
	}
	if to == SRIDCRS84 {
		to = SRIDWGS84
	}
	if from == to {
		return g, nil
	}
	if !KnownSRID(from) {
		return nil, fmt.Errorf("geo: unknown source SRID %d", from)
	}
	if !KnownSRID(to) {
		return nil, fmt.Errorf("geo: unknown target SRID %d", to)
	}
	fwd := func(p Point) Point {
		ll := toWGS84(p, from)
		return fromWGS84(ll, to)
	}
	return mapCoords(g, fwd), nil
}

func toWGS84(p Point, from SRID) Point {
	switch from {
	case SRIDWGS84:
		return p
	case SRIDWebMercator:
		lon := p.X / earthRadiusM * rad2deg
		lat := (2*math.Atan(math.Exp(p.Y/earthRadiusM)) - math.Pi/2) * rad2deg
		return Point{lon, lat}
	case SRIDGreekGrid:
		// Inverse of the simplified transverse Mercator below.
		lon := (p.X-ggFalseEasting)/(ggScale*earthRadiusM*deg2rad*kGreekLat) + ggCentralMeridian
		lat := p.Y / (ggScale * earthRadiusM * deg2rad)
		return Point{lon, lat}
	}
	return p
}

// kGreekLat is cos(38 deg): the demo's products cluster around lat 38 N, so
// a single-parallel equirectangular TM approximation keeps distances within
// ~1% over Greece — sufficient for shape-level reproduction.
var kGreekLat = math.Cos(38 * deg2rad)

func fromWGS84(p Point, to SRID) Point {
	switch to {
	case SRIDWGS84:
		return p
	case SRIDWebMercator:
		x := p.X * deg2rad * earthRadiusM
		lat := math.Max(-89.9, math.Min(89.9, p.Y))
		y := earthRadiusM * math.Log(math.Tan(math.Pi/4+lat*deg2rad/2))
		return Point{x, y}
	case SRIDGreekGrid:
		x := ggFalseEasting + ggScale*earthRadiusM*deg2rad*kGreekLat*(p.X-ggCentralMeridian)
		y := ggScale * earthRadiusM * deg2rad * p.Y
		return Point{x, y}
	}
	return p
}

// mapCoords applies f to every coordinate of g, returning a new geometry.
func mapCoords(g Geometry, f func(Point) Point) Geometry {
	mapPts := func(cs []Point) []Point {
		out := make([]Point, len(cs))
		for i, p := range cs {
			out[i] = f(p)
		}
		return out
	}
	switch t := g.(type) {
	case Point:
		if t.IsEmpty() {
			return t
		}
		return f(t)
	case MultiPoint:
		return MultiPoint{Points: mapPts(t.Points)}
	case LineString:
		return LineString{Coords: mapPts(t.Coords)}
	case MultiLineString:
		out := make([]LineString, len(t.Lines))
		for i, l := range t.Lines {
			out[i] = LineString{Coords: mapPts(l.Coords)}
		}
		return MultiLineString{Lines: out}
	case Polygon:
		out := Polygon{Exterior: Ring{Coords: mapPts(t.Exterior.Coords)}}
		for _, h := range t.Holes {
			out.Holes = append(out.Holes, Ring{Coords: mapPts(h.Coords)})
		}
		return out
	case MultiPolygon:
		out := make([]Polygon, len(t.Polygons))
		for i, p := range t.Polygons {
			out[i] = mapCoords(p, f).(Polygon)
		}
		return MultiPolygon{Polygons: out}
	case GeometryCollection:
		out := make([]Geometry, len(t.Geometries))
		for i, m := range t.Geometries {
			out[i] = mapCoords(m, f)
		}
		return GeometryCollection{Geometries: out}
	}
	return g
}

// GeodesicDistanceMeters reports the approximate minimum distance in metres
// between two WGS84 geometries, computed by projecting both to a local
// equirectangular plane centred between them. Exact when they intersect (0).
// Longitude differences are normalised into [-180°, 180°]: when the
// geometries' centres lie more than 180° apart, b is measured shifted by
// a multiple of 360° to the side of the antimeridian a lies on, so that
// (179.99 10) and (-179.99 10) are 2.2 km apart, not 39,000. Its
// geometries' longitudes lie within [-180°, 180°] (strdf rejects others),
// which is what lets ExpandMeters bound it without wrapping.
func GeodesicDistanceMeters(a, b Geometry) float64 {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	// Point-vs-simple-geometry is the dominant shape in stSPARQL distance
	// filters (site point × hotspot polygon, evaluated once per join row);
	// walk the coordinates directly instead of materialising segment and
	// vertex slices.
	if p, ok := a.(Point); ok {
		if d, handled := geodesicPointFast(p, b); handled {
			return d
		}
	} else if p, ok := b.(Point); ok {
		if d, handled := geodesicPointFast(p, a); handled {
			return d
		}
	}
	ea, eb := a.Envelope(), b.Envelope()
	if dx := lonShift(eb.Center().X, ea.Center().X); dx != 0 {
		b = mapCoords(b, func(p Point) Point { return Point{X: p.X + dx, Y: p.Y} })
		eb.MinX, eb.MaxX = eb.MinX+dx, eb.MaxX+dx
	}
	if Intersects(a, b) {
		return 0
	}
	center := ea.Extend(eb).Center()
	k := math.Cos(center.Y * deg2rad)
	proj := func(p Point) Point {
		return Point{
			X: earthRadiusM * deg2rad * k * (p.X - center.X),
			Y: earthRadiusM * deg2rad * (p.Y - center.Y),
		}
	}
	return Distance(mapCoords(a, proj), mapCoords(b, proj))
}

// ExpandMeters widens env to a box that meets the envelope of every
// geometry GeodesicDistanceMeters places within meters of a geometry
// inside env — the R-tree probe for a distance filter — provided those
// geometries stay between latitudes ±otherLat (90 when nothing is known
// of them).
//
// The metric measures on a plane centred on the pair's combined
// envelope: R·π/180 metres per degree of latitude, and that times
// cos(centre latitude) per degree of longitude. So latitude widens by
// Δlat = meters/(R·π/180) and longitude by Δlat/cos(c), where c bounds
// the centre's |latitude|. The centre lies between the pair's extreme
// latitudes, so c ≤ max(env's |lat|, otherLat); and since the other
// geometry ends at the pole, a centre north of the equator lies at most
// halfway from env.MinY to 90° (south: from env.MaxY to -90°). The
// metric measures longitude differences across the antimeridian, so
// once the widened box would reach ±180° it spans every longitude: one
// conservative envelope, not two split at the antimeridian. A distance
// that is not positive widens nothing.
func ExpandMeters(env Envelope, meters, otherLat float64) Envelope {
	if env.IsEmpty() || !(meters > 0) {
		return env
	}
	// The slack absorbs rounding in the distance computation, so a pair
	// measured exactly at the limit is never pruned.
	dLat := meters / (earthRadiusM * deg2rad) * (1 + 1e-9)
	out := Envelope{MinX: env.MinX, MinY: env.MinY - dLat, MaxX: env.MaxX, MaxY: env.MaxY + dLat}
	c := math.Min(math.Max(math.Max(math.Abs(env.MinY), math.Abs(env.MaxY)), otherLat),
		(90+math.Max(env.MinY, -env.MaxY))/2)
	k := math.Cos(c * deg2rad)
	if dLon := dLat / k; !(k > 0) || env.MinX-dLon <= -180 || env.MaxX+dLon >= 180 {
		out.MinX, out.MaxX = math.Inf(-1), math.Inf(1)
	} else {
		out.MinX, out.MaxX = env.MinX-dLon, env.MaxX+dLon
	}
	return out
}

// lonShift returns the multiple of 360° that brings longitude x within
// 180° of ref, 0 unless they lie on either side of the antimeridian.
func lonShift(x, ref float64) float64 {
	if d := x - ref; d > 180 || d < -180 {
		return -360 * math.Round(d/360)
	}
	return 0
}

// geodesicPointFast computes GeodesicDistanceMeters for a point against a
// Point, LineString, Polygon or MultiPolygon without allocating: the same
// envelope check, on-boundary/containment test, local projection and
// point-segment minimisation as the general path, applied to the
// coordinate slices in place.
func geodesicPointFast(p Point, g Geometry) (float64, bool) {
	switch g.(type) {
	case Point, LineString, Polygon, MultiPolygon:
	default:
		return 0, false
	}
	genv := g.Envelope()
	p.X += lonShift(p.X, genv.Center().X)
	if p.Envelope().Intersects(genv) && pointOn(p, g) {
		return 0, true
	}
	center := p.Envelope().Extend(genv).Center()
	k := math.Cos(center.Y * deg2rad)
	proj := func(q Point) Point {
		return Point{
			X: earthRadiusM * deg2rad * k * (q.X - center.X),
			Y: earthRadiusM * deg2rad * (q.Y - center.Y),
		}
	}
	pp := proj(p)
	min := math.Inf(1)
	seg := func(cs []Point) {
		for i := 1; i < len(cs); i++ {
			if d := pointSegmentDistance(pp, proj(cs[i-1]), proj(cs[i])); d < min {
				min = d
			}
		}
		if len(cs) == 1 { // degenerate ring/line: vertex distance
			if d := dist(pp, proj(cs[0])); d < min {
				min = d
			}
		}
	}
	switch t := g.(type) {
	case Point:
		return dist(pp, proj(t)), true
	case LineString:
		seg(t.Coords)
	case Polygon:
		seg(t.Exterior.Coords)
		for _, h := range t.Holes {
			seg(h.Coords)
		}
	case MultiPolygon:
		for _, pg := range t.Polygons {
			seg(pg.Exterior.Coords)
			for _, h := range pg.Holes {
				seg(h.Coords)
			}
		}
	}
	return min, true
}

// BufferMeters buffers a WGS84 geometry by a distance expressed in metres,
// by projecting to a local plane, buffering, and projecting back.
func BufferMeters(g Geometry, meters float64, quadrantSegments int) Geometry {
	if g == nil || g.IsEmpty() {
		return Polygon{}
	}
	center := g.Envelope().Center()
	k := math.Cos(center.Y * deg2rad)
	if k < 1e-6 {
		k = 1e-6
	}
	proj := func(p Point) Point {
		return Point{
			X: earthRadiusM * deg2rad * k * (p.X - center.X),
			Y: earthRadiusM * deg2rad * (p.Y - center.Y),
		}
	}
	unproj := func(p Point) Point {
		return Point{
			X: center.X + p.X/(earthRadiusM*deg2rad*k),
			Y: center.Y + p.Y/(earthRadiusM*deg2rad),
		}
	}
	buffered := Buffer(mapCoords(g, proj), meters, quadrantSegments)
	return mapCoords(buffered, unproj)
}

// AreaSquareMeters reports the approximate area in square metres of a WGS84
// polygonal geometry via local equirectangular projection.
func AreaSquareMeters(g Geometry) float64 {
	if g == nil || g.IsEmpty() {
		return 0
	}
	center := g.Envelope().Center()
	k := math.Cos(center.Y * deg2rad)
	proj := func(p Point) Point {
		return Point{
			X: earthRadiusM * deg2rad * k * (p.X - center.X),
			Y: earthRadiusM * deg2rad * (p.Y - center.Y),
		}
	}
	return Area(mapCoords(g, proj))
}
