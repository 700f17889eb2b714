package geo

import (
	"fmt"
	"math"
)

// Metric and constructive operations: distance, centroid, buffer, convex
// hull, simplification. These back stSPARQL functions such as
// strdf:distance and strdf:buffer and the rapid-mapping services.

// Distance reports the minimum planar distance between two geometries
// (0 when they intersect).
func Distance(a, b Geometry) float64 {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return math.Inf(1)
	}
	if Intersects(a, b) {
		return 0
	}
	min := math.Inf(1)
	va, vb := vertices(a), vertices(b)
	sa, sb := segments(a), segments(b)
	for _, p := range va {
		for _, s := range sb {
			if d := pointSegmentDistance(p, s[0], s[1]); d < min {
				min = d
			}
		}
		if len(sb) == 0 {
			for _, q := range vb {
				if d := dist(p, q); d < min {
					min = d
				}
			}
		}
	}
	for _, p := range vb {
		for _, s := range sa {
			if d := pointSegmentDistance(p, s[0], s[1]); d < min {
				min = d
			}
		}
		if len(sa) == 0 {
			for _, q := range va {
				if d := dist(p, q); d < min {
					min = d
				}
			}
		}
	}
	return min
}

// pointSegmentDistance reports the distance from p to segment [a, b].
func pointSegmentDistance(p, a, b Point) float64 {
	t := projectParam(a, b, p)
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return dist(p, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)})
}

// Area reports the area of a geometry (0 for points and curves).
func Area(g Geometry) float64 {
	switch t := g.(type) {
	case Polygon:
		return t.Area()
	case MultiPolygon:
		return t.Area()
	case GeometryCollection:
		var sum float64
		for _, m := range t.Geometries {
			sum += Area(m)
		}
		return sum
	default:
		return 0
	}
}

// Length reports the boundary length of a geometry.
func Length(g Geometry) float64 {
	switch t := g.(type) {
	case LineString:
		return t.Length()
	case MultiLineString:
		return t.Length()
	case Polygon:
		return t.Perimeter()
	case MultiPolygon:
		var sum float64
		for _, p := range t.Polygons {
			sum += p.Perimeter()
		}
		return sum
	case GeometryCollection:
		var sum float64
		for _, m := range t.Geometries {
			sum += Length(m)
		}
		return sum
	default:
		return 0
	}
}

// Centroid reports the centroid of a geometry. For polygons the area
// centroid (holes subtracted); for lines the length-weighted midpoint; for
// point sets the mean.
func Centroid(g Geometry) Point {
	switch t := g.(type) {
	case Point:
		return t
	case MultiPoint:
		var sx, sy float64
		for _, p := range t.Points {
			sx += p.X
			sy += p.Y
		}
		n := float64(len(t.Points))
		if n == 0 {
			return Point{math.NaN(), math.NaN()}
		}
		return Point{sx / n, sy / n}
	case LineString:
		return lineCentroid(t.Coords)
	case MultiLineString:
		var sx, sy, sw float64
		for _, l := range t.Lines {
			c := lineCentroid(l.Coords)
			w := l.Length()
			sx += c.X * w
			sy += c.Y * w
			sw += w
		}
		if sw == 0 {
			return Point{math.NaN(), math.NaN()}
		}
		return Point{sx / sw, sy / sw}
	case Polygon:
		return polygonCentroid(t)
	case MultiPolygon:
		var sx, sy, sw float64
		for _, p := range t.Polygons {
			c := polygonCentroid(p)
			w := p.Area()
			sx += c.X * w
			sy += c.Y * w
			sw += w
		}
		if sw == 0 {
			return Point{math.NaN(), math.NaN()}
		}
		return Point{sx / sw, sy / sw}
	case GeometryCollection:
		// Use the highest-dimension members, matching PostGIS semantics.
		d := t.Dimension()
		var sx, sy, sw float64
		for _, m := range t.Geometries {
			if m.Dimension() != d {
				continue
			}
			c := Centroid(m)
			w := 1.0
			switch d {
			case 1:
				w = Length(m)
			case 2:
				w = Area(m)
			}
			sx += c.X * w
			sy += c.Y * w
			sw += w
		}
		if sw == 0 {
			return Point{math.NaN(), math.NaN()}
		}
		return Point{sx / sw, sy / sw}
	default:
		return Point{math.NaN(), math.NaN()}
	}
}

func lineCentroid(cs []Point) Point {
	var sx, sy, sw float64
	for i := 1; i < len(cs); i++ {
		w := dist(cs[i-1], cs[i])
		sx += (cs[i-1].X + cs[i].X) / 2 * w
		sy += (cs[i-1].Y + cs[i].Y) / 2 * w
		sw += w
	}
	if sw == 0 {
		if len(cs) > 0 {
			return cs[0]
		}
		return Point{math.NaN(), math.NaN()}
	}
	return Point{sx / sw, sy / sw}
}

func polygonCentroid(p Polygon) Point {
	cx, cy, a := ringCentroidArea(p.Exterior)
	for _, h := range p.Holes {
		hx, hy, ha := ringCentroidArea(h)
		// ringCentroidArea returns signed values; holes wind opposite to the
		// exterior, so adding signed contributions subtracts the hole.
		cx += hx
		cy += hy
		a += ha
	}
	if a == 0 {
		if len(p.Exterior.Coords) > 0 {
			return p.Exterior.Coords[0]
		}
		return Point{math.NaN(), math.NaN()}
	}
	return Point{cx / (3 * a), cy / (3 * a)}
}

// ringCentroidArea returns the signed area moments used by the polygon
// centroid formula: sums of (x_i + x_{i+1}) * cross and the signed area*2.
func ringCentroidArea(r Ring) (sx, sy, area2 float64) {
	for i := 0; i < len(r.Coords)-1; i++ {
		a, b := r.Coords[i], r.Coords[i+1]
		cross := a.X*b.Y - b.X*a.Y
		sx += (a.X + b.X) * cross
		sy += (a.Y + b.Y) * cross
		area2 += cross
	}
	return sx / 2, sy / 2, area2 / 2
}

// Buffer returns a polygon approximating all points within radius d of g,
// using quadrantSegments segments per quarter circle (8 when 0 is passed).
// For d <= 0 on non-polygon inputs it returns an empty polygon.
func Buffer(g Geometry, d float64, quadrantSegments int) Geometry {
	if quadrantSegments <= 0 {
		quadrantSegments = 8
	}
	if g == nil || g.IsEmpty() {
		return Polygon{}
	}
	if d <= 0 {
		// Negative buffering is only meaningful for polygons; approximate by
		// returning the polygon itself shrunk via simplification, or empty.
		if d == 0 {
			return g
		}
		return Polygon{}
	}
	switch t := g.(type) {
	case Point:
		return circlePolygon(t, d, quadrantSegments*4)
	case MultiPoint:
		var polys []Polygon
		for _, p := range t.Points {
			polys = append(polys, circlePolygon(p, d, quadrantSegments*4))
		}
		return dissolve(polys)
	case LineString:
		return bufferLine(t.Coords, d, quadrantSegments)
	case MultiLineString:
		var polys []Polygon
		for _, l := range t.Lines {
			b := bufferLine(l.Coords, d, quadrantSegments)
			polys = append(polys, polygons(b)...)
		}
		return dissolve(polys)
	case Polygon:
		// Outward buffer of a polygon: buffer the boundary and union with
		// the polygon itself.
		b := bufferLine(t.Exterior.Coords, d, quadrantSegments)
		polys := append(polygons(b), t)
		return dissolve(polys)
	case MultiPolygon:
		var polys []Polygon
		for _, p := range t.Polygons {
			b := Buffer(p, d, quadrantSegments)
			polys = append(polys, polygons(b)...)
		}
		return dissolve(polys)
	case GeometryCollection:
		var polys []Polygon
		for _, m := range t.Geometries {
			b := Buffer(m, d, quadrantSegments)
			polys = append(polys, polygons(b)...)
		}
		return dissolve(polys)
	}
	return Polygon{}
}

func circlePolygon(c Point, r float64, n int) Polygon {
	if n < 8 {
		n = 8
	}
	cs := make([]Point, 0, n+1)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		cs = append(cs, Point{c.X + r*math.Cos(th), c.Y + r*math.Sin(th)})
	}
	cs = append(cs, cs[0])
	return NewPolygon(Ring{Coords: cs})
}

// bufferLine buffers a polyline by unioning per-segment capsules. The
// result is the convex hull when the union dissolver cannot merge them,
// which keeps the operation total at the cost of some overestimation on
// sharply concave polylines.
func bufferLine(cs []Point, d float64, q int) Geometry {
	if len(cs) == 0 {
		return Polygon{}
	}
	if len(cs) == 1 {
		return circlePolygon(cs[0], d, q*4)
	}
	var polys []Polygon
	for i := 1; i < len(cs); i++ {
		polys = append(polys, segmentCapsule(cs[i-1], cs[i], d, q))
	}
	return dissolve(polys)
}

func segmentCapsule(a, b Point, d float64, q int) Polygon {
	dx, dy := b.X-a.X, b.Y-a.Y
	l := math.Hypot(dx, dy)
	if l == 0 {
		return circlePolygon(a, d, q*4)
	}
	nx, ny := -dy/l*d, dx/l*d
	theta := math.Atan2(dy, dx)
	var cs []Point
	cs = append(cs, Point{a.X + nx, a.Y + ny})
	// Semi-circle cap around a, from theta+pi/2 to theta+3pi/2.
	for i := 1; i < 2*q; i++ {
		th := theta + math.Pi/2 + math.Pi*float64(i)/float64(2*q)
		cs = append(cs, Point{a.X + d*math.Cos(th), a.Y + d*math.Sin(th)})
	}
	cs = append(cs, Point{a.X - nx, a.Y - ny}, Point{b.X - nx, b.Y - ny})
	// Semi-circle cap around b, from theta-pi/2 to theta+pi/2.
	for i := 1; i < 2*q; i++ {
		th := theta - math.Pi/2 + math.Pi*float64(i)/float64(2*q)
		cs = append(cs, Point{b.X + d*math.Cos(th), b.Y + d*math.Sin(th)})
	}
	cs = append(cs, cs[0])
	return NewPolygon(Ring{Coords: cs})
}

// dissolve unions a set of polygons. Overlapping groups are merged via
// repeated pairwise union; disjoint groups become a MultiPolygon.
func dissolve(polys []Polygon) Geometry {
	switch len(polys) {
	case 0:
		return Polygon{}
	case 1:
		return polys[0]
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(polys); i++ {
			for j := i + 1; j < len(polys); j++ {
				if !polys[i].Envelope().Intersects(polys[j].Envelope()) {
					continue
				}
				if !Intersects(polys[i], polys[j]) {
					continue
				}
				u, err := UnionPolygons(polys[i], polys[j])
				if err != nil || len(u) != 1 {
					continue
				}
				polys[i] = u[0]
				polys = append(polys[:j], polys[j+1:]...)
				merged = true
				break outer
			}
		}
	}
	if len(polys) == 1 {
		return polys[0]
	}
	return MultiPolygon{Polygons: polys}
}

// Validate performs basic validity checks: rings closed with >= 4 points,
// line strings with >= 2 points, no NaN coordinates (except empty points).
func Validate(g Geometry) error {
	switch t := g.(type) {
	case Point:
		if t.IsEmpty() {
			return nil
		}
		if math.IsInf(t.X, 0) || math.IsInf(t.Y, 0) {
			return fmt.Errorf("geo: point has infinite coordinate")
		}
	case MultiPoint:
		for _, p := range t.Points {
			if err := Validate(p); err != nil {
				return err
			}
		}
	case LineString:
		if len(t.Coords) == 1 {
			return fmt.Errorf("geo: line string with a single coordinate")
		}
		for _, p := range t.Coords {
			if err := Validate(p); err != nil {
				return err
			}
		}
	case MultiLineString:
		for _, l := range t.Lines {
			if err := Validate(l); err != nil {
				return err
			}
		}
	case Polygon:
		if t.IsEmpty() {
			return nil
		}
		if err := validateRing(t.Exterior); err != nil {
			return err
		}
		for _, h := range t.Holes {
			if err := validateRing(h); err != nil {
				return err
			}
		}
	case MultiPolygon:
		for _, p := range t.Polygons {
			if err := Validate(p); err != nil {
				return err
			}
		}
	case GeometryCollection:
		for _, m := range t.Geometries {
			if err := Validate(m); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateRing(r Ring) error {
	if len(r.Coords) < 4 {
		return fmt.Errorf("geo: ring has %d coordinates, need at least 4", len(r.Coords))
	}
	if !r.Coords[0].Equal(r.Coords[len(r.Coords)-1]) {
		return fmt.Errorf("geo: ring is not closed")
	}
	for _, p := range r.Coords {
		if p.IsEmpty() {
			return fmt.Errorf("geo: ring has NaN coordinate")
		}
	}
	return nil
}
