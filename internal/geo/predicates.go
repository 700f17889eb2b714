package geo

import "math"

// Topological predicates in the style of the OGC Simple Features access
// specification. These back the stSPARQL spatial filter functions
// (strdf:intersects, strdf:contains, ...) used in the TELEIOS demo.
//
// The implementation decomposes every geometry into points, segments and
// polygons, and evaluates the predicates from primitive tests (orientation,
// segment intersection, point-in-polygon). It is exact for the simple,
// non-self-intersecting geometries the Earth Observatory produces.

// orientation classifies the turn a->b->c: +1 counter-clockwise,
// -1 clockwise, 0 collinear (within tolerance scaled to coordinate size).
func orientation(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	scale := math.Abs(b.X-a.X) + math.Abs(b.Y-a.Y) + math.Abs(c.X-a.X) + math.Abs(c.Y-a.Y)
	tol := eps * (scale + 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point p lies on segment [a, b].
func onSegment(p, a, b Point) bool {
	return math.Min(a.X, b.X)-eps <= p.X && p.X <= math.Max(a.X, b.X)+eps &&
		math.Min(a.Y, b.Y)-eps <= p.Y && p.Y <= math.Max(a.Y, b.Y)+eps
}

// segmentsIntersect reports whether segments [a,b] and [c,d] share a point.
func segmentsIntersect(a, b, c, d Point) bool {
	o1 := orientation(a, b, c)
	o2 := orientation(a, b, d)
	o3 := orientation(c, d, a)
	o4 := orientation(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == 0 && onSegment(c, a, b) {
		return true
	}
	if o2 == 0 && onSegment(d, a, b) {
		return true
	}
	if o3 == 0 && onSegment(a, c, d) {
		return true
	}
	if o4 == 0 && onSegment(b, c, d) {
		return true
	}
	return false
}

// segmentIntersection returns the proper intersection point of segments
// [a,b] and [c,d] when they cross at a single interior point; ok is false
// for parallel, collinear or non-crossing segments.
func segmentIntersection(a, b, c, d Point) (Point, bool) {
	d1 := Point{b.X - a.X, b.Y - a.Y}
	d2 := Point{d.X - c.X, d.Y - c.Y}
	denom := d1.X*d2.Y - d1.Y*d2.X
	if math.Abs(denom) <= eps*(math.Abs(d1.X)+math.Abs(d1.Y)+math.Abs(d2.X)+math.Abs(d2.Y)+1) {
		return Point{}, false
	}
	t := ((c.X-a.X)*d2.Y - (c.Y-a.Y)*d2.X) / denom
	u := ((c.X-a.X)*d1.Y - (c.Y-a.Y)*d1.X) / denom
	if t < -eps || t > 1+eps || u < -eps || u > 1+eps {
		return Point{}, false
	}
	return Point{a.X + t*d1.X, a.Y + t*d1.Y}, true
}

// segmentProperCrossing reports whether [a,b] and [c,d] cross at a single
// point interior to both segments (no endpoint touches, no collinearity).
func segmentProperCrossing(a, b, c, d Point) bool {
	o1 := orientation(a, b, c)
	o2 := orientation(a, b, d)
	o3 := orientation(c, d, a)
	o4 := orientation(c, d, b)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// pointRingLocation classifies p relative to ring r: +1 inside, 0 on the
// boundary, -1 outside. Ray-casting with explicit boundary handling.
func pointRingLocation(p Point, r Ring) int {
	n := len(r.Coords)
	if n < 4 {
		return -1
	}
	for i := 0; i < n-1; i++ {
		a, b := r.Coords[i], r.Coords[i+1]
		if orientation(a, b, p) == 0 && onSegment(p, a, b) {
			return 0
		}
	}
	inside := false
	for i := 0; i < n-1; i++ {
		a, b := r.Coords[i], r.Coords[i+1]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	if inside {
		return 1
	}
	return -1
}

// pointPolygonLocation classifies p relative to polygon pg: +1 interior,
// 0 boundary, -1 exterior (hole interiors are exterior).
func pointPolygonLocation(p Point, pg Polygon) int {
	loc := pointRingLocation(p, pg.Exterior)
	if loc <= 0 {
		return loc
	}
	for _, h := range pg.Holes {
		switch pointRingLocation(p, h) {
		case 0:
			return 0
		case 1:
			return -1
		}
	}
	return 1
}

// isEnvelopeRect reports whether a polygon's region equals its envelope: a
// closed 4-edge ring, every edge axis-parallel, every vertex on the
// envelope boundary. For such (possibly degenerate) rectangles, region
// intersection coincides with envelope intersection. env is p's
// envelope, which the caller has already computed.
func isEnvelopeRect(p Polygon, env Envelope) bool {
	if len(p.Holes) != 0 || len(p.Exterior.Coords) != 5 {
		return false
	}
	cs := p.Exterior.Coords
	if !cs[0].Equal(cs[4]) {
		return false
	}
	for i := 0; i < 4; i++ {
		c := cs[i]
		if !eqCoord(c.X, env.MinX) && !eqCoord(c.X, env.MaxX) {
			return false
		}
		if !eqCoord(c.Y, env.MinY) && !eqCoord(c.Y, env.MaxY) {
			return false
		}
		if !eqCoord(cs[i].X, cs[i+1].X) && !eqCoord(cs[i].Y, cs[i+1].Y) {
			return false
		}
	}
	return true
}

// polygonRing indexes a polygon's rings: 0 is the exterior, 1.. the holes.
func polygonRing(p Polygon, i int) Ring {
	if i == 0 {
		return p.Exterior
	}
	return p.Holes[i-1]
}

// polygonPairIntersects is Intersects specialised to two polygons whose
// envelopes overlap: any boundary segments cross, or a vertex of one lies
// inside (or on) the other. Allocation-free; the answer is identical to
// the generic path.
func polygonPairIntersects(a, b Polygon) bool {
	na, nb := 1+len(a.Holes), 1+len(b.Holes)
	for i := 0; i < na; i++ {
		ra := polygonRing(a, i).Coords
		for j := 0; j < nb; j++ {
			rb := polygonRing(b, j).Coords
			for s := 1; s < len(ra); s++ {
				for t := 1; t < len(rb); t++ {
					if segmentsIntersect(ra[s-1], ra[s], rb[t-1], rb[t]) {
						return true
					}
				}
			}
		}
	}
	for j := 0; j < nb; j++ {
		for _, v := range polygonRing(b, j).Coords {
			if pointPolygonLocation(v, a) >= 0 {
				return true
			}
		}
	}
	for i := 0; i < na; i++ {
		for _, v := range polygonRing(a, i).Coords {
			if pointPolygonLocation(v, b) >= 0 {
				return true
			}
		}
	}
	return false
}

// segments yields the boundary segments of a geometry.
func segments(g Geometry) [][2]Point {
	var out [][2]Point
	add := func(cs []Point) {
		for i := 1; i < len(cs); i++ {
			out = append(out, [2]Point{cs[i-1], cs[i]})
		}
	}
	switch t := g.(type) {
	case LineString:
		add(t.Coords)
	case MultiLineString:
		for _, l := range t.Lines {
			add(l.Coords)
		}
	case Polygon:
		add(t.Exterior.Coords)
		for _, h := range t.Holes {
			add(h.Coords)
		}
	case MultiPolygon:
		for _, p := range t.Polygons {
			out = append(out, segments(p)...)
		}
	case GeometryCollection:
		for _, m := range t.Geometries {
			out = append(out, segments(m)...)
		}
	}
	return out
}

// points yields the point members of a geometry (point types only).
func points(g Geometry) []Point {
	switch t := g.(type) {
	case Point:
		if t.IsEmpty() {
			return nil
		}
		return []Point{t}
	case MultiPoint:
		return t.Points
	case GeometryCollection:
		var out []Point
		for _, m := range t.Geometries {
			out = append(out, points(m)...)
		}
		return out
	}
	return nil
}

// polygons yields the polygon members of a geometry.
func polygons(g Geometry) []Polygon {
	switch t := g.(type) {
	case Polygon:
		if t.IsEmpty() {
			return nil
		}
		return []Polygon{t}
	case MultiPolygon:
		return t.Polygons
	case GeometryCollection:
		var out []Polygon
		for _, m := range t.Geometries {
			out = append(out, polygons(m)...)
		}
		return out
	}
	return nil
}

// vertices yields every coordinate of a geometry.
func vertices(g Geometry) []Point {
	switch t := g.(type) {
	case Point:
		if t.IsEmpty() {
			return nil
		}
		return []Point{t}
	case MultiPoint:
		return t.Points
	case LineString:
		return t.Coords
	case MultiLineString:
		var out []Point
		for _, l := range t.Lines {
			out = append(out, l.Coords...)
		}
		return out
	case Polygon:
		out := append([]Point(nil), t.Exterior.Coords...)
		for _, h := range t.Holes {
			out = append(out, h.Coords...)
		}
		return out
	case MultiPolygon:
		var out []Point
		for _, p := range t.Polygons {
			out = append(out, vertices(p)...)
		}
		return out
	case GeometryCollection:
		var out []Point
		for _, m := range t.Geometries {
			out = append(out, vertices(m)...)
		}
		return out
	}
	return nil
}

// Intersects reports whether a and b share at least one point.
func Intersects(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	ea, eb := a.Envelope(), b.Envelope()
	if !ea.Intersects(eb) {
		return false
	}
	// Polygon vs polygon is the hot shape in pushed-down spatial filters
	// (coverage × query window, once per candidate row); walk the rings in
	// place instead of materialising segment and vertex slices.
	if pa, ok := a.(Polygon); ok {
		if pb, ok := b.(Polygon); ok {
			// Two polygons that each coincide with their own envelope
			// (axis-aligned rectangles — every catalogue footprint and
			// query window) intersect iff their envelopes do, which was
			// just established.
			if isEnvelopeRect(pa, ea) && isEnvelopeRect(pb, eb) {
				return true
			}
			return polygonPairIntersects(pa, pb)
		}
	}
	// Point vs anything.
	for _, p := range points(a) {
		if pointOn(p, b) {
			return true
		}
	}
	for _, p := range points(b) {
		if pointOn(p, a) {
			return true
		}
	}
	// Segment vs segment.
	sa, sb := segments(a), segments(b)
	for _, s1 := range sa {
		for _, s2 := range sb {
			if segmentsIntersect(s1[0], s1[1], s2[0], s2[1]) {
				return true
			}
		}
	}
	// Containment without boundary crossing: any vertex of one inside a
	// polygon of the other.
	for _, pg := range polygons(a) {
		for _, v := range vertices(b) {
			if pointPolygonLocation(v, pg) >= 0 {
				return true
			}
		}
	}
	for _, pg := range polygons(b) {
		for _, v := range vertices(a) {
			if pointPolygonLocation(v, pg) >= 0 {
				return true
			}
		}
	}
	return false
}

// pointOn reports whether p lies on geometry g (interior or boundary).
func pointOn(p Point, g Geometry) bool {
	switch t := g.(type) {
	case Point:
		return p.Equal(t)
	case MultiPoint:
		for _, q := range t.Points {
			if p.Equal(q) {
				return true
			}
		}
	case LineString:
		for i := 1; i < len(t.Coords); i++ {
			a, b := t.Coords[i-1], t.Coords[i]
			if orientation(a, b, p) == 0 && onSegment(p, a, b) {
				return true
			}
		}
	case MultiLineString:
		for _, l := range t.Lines {
			if pointOn(p, l) {
				return true
			}
		}
	case Polygon:
		return pointPolygonLocation(p, t) >= 0
	case MultiPolygon:
		for _, pg := range t.Polygons {
			if pointPolygonLocation(p, pg) >= 0 {
				return true
			}
		}
	case GeometryCollection:
		for _, m := range t.Geometries {
			if pointOn(p, m) {
				return true
			}
		}
	}
	return false
}

// pointInInterior reports whether p lies strictly inside g's interior.
// For 1-dimensional geometries the interior is the curve minus endpoints;
// we approximate it as "on the curve" which suffices for the relations the
// Earth Observatory evaluates.
func pointInInterior(p Point, g Geometry) bool {
	switch t := g.(type) {
	case Polygon:
		return pointPolygonLocation(p, t) == 1
	case MultiPolygon:
		for _, pg := range t.Polygons {
			if pointPolygonLocation(p, pg) == 1 {
				return true
			}
		}
		return false
	case GeometryCollection:
		for _, m := range t.Geometries {
			if pointInInterior(p, m) {
				return true
			}
		}
		return false
	default:
		return pointOn(p, g)
	}
}

// Disjoint reports whether a and b share no point.
func Disjoint(a, b Geometry) bool { return !Intersects(a, b) }

// Within reports whether every point of a lies in b (a inside b).
func Within(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if !b.Envelope().Contains(a.Envelope()) {
		return false
	}
	// Every vertex of a must be on/in b.
	for _, v := range vertices(a) {
		if !pointOn(v, b) {
			return false
		}
	}
	// No boundary of a may cross out of b: any proper crossing between a's
	// segments and b's boundary that exits b disqualifies. We check segment
	// midpoints and intersection-split midpoints.
	bPolys := polygons(b)
	if len(bPolys) > 0 {
		for _, s := range segments(a) {
			for _, mid := range sampleSegment(s[0], s[1], segments(b)) {
				if !pointOn(mid, b) {
					return false
				}
			}
		}
		// For polygon-in-polygon: also a's interior representative point.
		for _, pg := range polygons(a) {
			rp := RepresentativePoint(pg)
			if !pointOn(rp, b) {
				return false
			}
		}
	}
	return true
}

// Contains reports whether b lies within a.
func Contains(a, b Geometry) bool { return Within(b, a) }

// sampleSegment splits [a,b] at its intersections with boundary segments
// and returns the midpoint of each piece (including the whole-segment
// midpoint when no split occurs).
func sampleSegment(a, b Point, boundary [][2]Point) []Point {
	ts := []float64{0, 1}
	for _, s := range boundary {
		if p, ok := segmentIntersection(a, b, s[0], s[1]); ok {
			t := projectParam(a, b, p)
			ts = append(ts, t)
		}
	}
	sortFloats(ts)
	var mids []Point
	for i := 1; i < len(ts); i++ {
		t := (ts[i-1] + ts[i]) / 2
		mids = append(mids, Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)})
	}
	return mids
}

func projectParam(a, b, p Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	den := dx*dx + dy*dy
	if den == 0 {
		return 0
	}
	return ((p.X-a.X)*dx + (p.Y-a.Y)*dy) / den
}

func sortFloats(fs []float64) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j] < fs[j-1]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Crosses reports whether a and b cross: they intersect, neither contains
// the other, and the intersection's dimension is lower than the maximum of
// their dimensions.
func Crosses(a, b Geometry) bool {
	if !Intersects(a, b) {
		return false
	}
	if Within(a, b) || Within(b, a) {
		return false
	}
	// Line/line: a proper crossing point exists.
	if a.Dimension() == 1 && b.Dimension() == 1 {
		for _, s1 := range segments(a) {
			for _, s2 := range segments(b) {
				if segmentProperCrossing(s1[0], s1[1], s2[0], s2[1]) {
					return true
				}
			}
		}
		return false
	}
	// Line/polygon (either order): the line has points both inside and
	// outside the polygon.
	line, poly := a, b
	if a.Dimension() == 2 && b.Dimension() == 1 {
		line, poly = b, a
	}
	if line.Dimension() == 1 && poly.Dimension() == 2 {
		var inside, outside bool
		for _, s := range segments(line) {
			for _, mid := range sampleSegment(s[0], s[1], segments(poly)) {
				if pointInInterior(mid, poly) {
					inside = true
				} else if !pointOn(mid, poly) {
					outside = true
				}
			}
		}
		return inside && outside
	}
	// Point/higher-dim handled by definition: some points in, some out.
	if a.Dimension() == 0 || b.Dimension() == 0 {
		pts, other := points(a), b
		if b.Dimension() == 0 {
			pts, other = points(b), a
		}
		var in, out bool
		for _, p := range pts {
			if pointOn(p, other) {
				in = true
			} else {
				out = true
			}
		}
		return in && out
	}
	return false
}

// Touches reports whether a and b intersect only at boundary points
// (their interiors are disjoint).
func Touches(a, b Geometry) bool {
	if !Intersects(a, b) {
		return false
	}
	// Interiors must not intersect. Sample: vertices and split midpoints of
	// a inside b's interior, and vice versa.
	if interiorsIntersect(a, b) || interiorsIntersect(b, a) {
		return false
	}
	return true
}

func interiorsIntersect(a, b Geometry) bool {
	bs := segments(b)
	check := func(p Point) bool { return pointInInterior(p, b) && pointInInterior(p, a) }
	for _, v := range vertices(a) {
		if check(v) {
			return true
		}
	}
	for _, s := range segments(a) {
		for _, mid := range sampleSegment(s[0], s[1], bs) {
			if check(mid) {
				return true
			}
		}
	}
	for _, pg := range polygons(a) {
		if check(RepresentativePoint(pg)) {
			return true
		}
		// Two polygons may overlap without either's representative point in
		// the other; sample b's vertices in a as well.
		for _, v := range vertices(b) {
			if pointPolygonLocation(v, pg) == 1 && pointInInterior(v, b) {
				return true
			}
		}
	}
	// Proper segment crossings imply interior intersection for area/area
	// and line/line cases: the boundary of one passes strictly through the
	// other, so points on either side of the crossing are interior to one
	// geometry and the crossing point interior to the other.
	for _, s1 := range segments(a) {
		for _, s2 := range bs {
			if segmentProperCrossing(s1[0], s1[1], s2[0], s2[1]) {
				if a.Dimension() == 2 || b.Dimension() == 2 {
					return true
				}
				if a.Dimension() == 1 && b.Dimension() == 1 {
					return true
				}
			}
		}
	}
	return false
}

// Overlaps reports whether a and b overlap: same dimension, intersecting
// interiors, and neither contains the other.
func Overlaps(a, b Geometry) bool {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return false
	}
	if a.Dimension() != b.Dimension() {
		return false
	}
	if !Intersects(a, b) || Within(a, b) || Within(b, a) {
		return false
	}
	return interiorsIntersect(a, b) || interiorsIntersect(b, a)
}

// Equals reports topological equality: mutual containment.
func Equals(a, b Geometry) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.IsEmpty() && b.IsEmpty() {
		return true
	}
	return Within(a, b) && Within(b, a)
}

// RepresentativePoint returns a point guaranteed to lie in the polygon's
// interior (for convex and most concave polygons: centroid; otherwise a
// scanline fallback).
func RepresentativePoint(p Polygon) Point {
	c := Centroid(p)
	if pointPolygonLocation(c, p) == 1 {
		return c
	}
	// Scanline through the vertical middle: take the midpoint of the widest
	// interior run.
	env := p.Envelope()
	y := (env.MinY + env.MaxY) / 2
	var xs []float64
	ringsOf := append([]Ring{p.Exterior}, p.Holes...)
	for _, r := range ringsOf {
		for i := 0; i < len(r.Coords)-1; i++ {
			a, b := r.Coords[i], r.Coords[i+1]
			if (a.Y > y) != (b.Y > y) {
				xs = append(xs, a.X+(y-a.Y)/(b.Y-a.Y)*(b.X-a.X))
			}
		}
	}
	sortFloats(xs)
	best, bestW := c, -1.0
	for i := 1; i < len(xs); i += 2 {
		mid := Point{(xs[i-1] + xs[i]) / 2, y}
		if w := xs[i] - xs[i-1]; w > bestW && pointPolygonLocation(mid, p) == 1 {
			best, bestW = mid, w
		}
	}
	return best
}
