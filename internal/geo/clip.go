package geo

import (
	"errors"
	"math"
)

// Polygon boolean operations (intersection, union, difference) via the
// Greiner-Hormann algorithm. The TELEIOS refinement step (Scenario 2 of the
// demo) subtracts sea-mask and land-cover polygons from hotspot pixel
// footprints; these operations implement that step.
//
// The implementation handles simple polygons. Degenerate configurations
// (vertices exactly on the other polygon's boundary — common for
// grid-aligned satellite footprints) are resolved by retrying with a tiny
// deterministic perturbation of the clip polygon, which changes areas by
// O(1e-9) — far below a SEVIRI pixel.

// ErrDegenerateClip is returned when clipping cannot be resolved even after
// perturbation retries.
var ErrDegenerateClip = errors.New("geo: degenerate polygon clip")

type clipOp int

const (
	opIntersection clipOp = iota
	opUnion
	opDifference
)

// IntersectPolygons returns the intersection of two polygons as a set of
// polygons (empty when disjoint).
func IntersectPolygons(subject, clip Polygon) ([]Polygon, error) {
	return clipPolygons(subject, clip, opIntersection)
}

// UnionPolygons returns the union of two polygons. Disjoint inputs yield
// both polygons unchanged.
func UnionPolygons(subject, clip Polygon) ([]Polygon, error) {
	return clipPolygons(subject, clip, opUnion)
}

// DifferencePolygons returns subject minus clip as a set of polygons.
// Holes in the clip polygon are handled by decomposition:
// a \ (ext \ holes) = (a \ ext) ∪ (a ∩ hole_i).
func DifferencePolygons(subject, clip Polygon) ([]Polygon, error) {
	if len(clip.Holes) == 0 {
		return clipPolygons(subject, clip, opDifference)
	}
	out, err := clipPolygons(subject, Polygon{Exterior: clip.Exterior}, opDifference)
	if err != nil {
		return nil, err
	}
	for _, h := range clip.Holes {
		hp := NewPolygon(h.Reverse())
		back, err := clipPolygons(subject, hp, opIntersection)
		if err != nil {
			return nil, err
		}
		out = append(out, back...)
	}
	return out, nil
}

// Intersection computes the pairwise intersection of the polygonal parts of
// two geometries and returns the result as a Geometry (Polygon,
// MultiPolygon, or empty Polygon).
func Intersection(a, b Geometry) (Geometry, error) {
	var out []Polygon
	for _, pa := range polygons(a) {
		for _, pb := range polygons(b) {
			ps, err := IntersectPolygons(pa, pb)
			if err != nil {
				return nil, err
			}
			out = append(out, ps...)
		}
	}
	return polysToGeometry(out), nil
}

// Difference subtracts every polygonal part of b from every polygonal part
// of a.
func Difference(a, b Geometry) (Geometry, error) {
	current := polygons(a)
	for _, pb := range polygons(b) {
		var next []Polygon
		for _, pa := range current {
			ps, err := DifferencePolygons(pa, pb)
			if err != nil {
				return nil, err
			}
			next = append(next, ps...)
		}
		current = next
	}
	return polysToGeometry(current), nil
}

// Union dissolves the polygonal parts of a and b into a single geometry.
func Union(a, b Geometry) (Geometry, error) {
	all := append(polygons(a), polygons(b)...)
	cp := make([]Polygon, len(all))
	copy(cp, all)
	return dissolve(cp), nil
}

func polysToGeometry(ps []Polygon) Geometry {
	switch len(ps) {
	case 0:
		return Polygon{}
	case 1:
		return ps[0]
	default:
		return MultiPolygon{Polygons: ps}
	}
}

// clipVertex is a node in the doubly linked Greiner-Hormann vertex list.
type clipVertex struct {
	p          Point
	next, prev *clipVertex
	neighbor   *clipVertex
	intersect  bool
	entry      bool
	visited    bool
	alpha      float64
}

// buildList converts ring coordinates (closed; first==last) to a circular
// doubly linked list, dropping the duplicated closing coordinate.
func buildList(cs []Point) *clipVertex {
	n := len(cs) - 1
	if n < 3 {
		return nil
	}
	var head, tail *clipVertex
	for i := 0; i < n; i++ {
		v := &clipVertex{p: cs[i]}
		if head == nil {
			head = v
			tail = v
			continue
		}
		tail.next = v
		v.prev = tail
		tail = v
	}
	tail.next = head
	head.prev = tail
	return head
}

// clipPolygons runs Greiner-Hormann with perturbation retries.
func clipPolygons(subject, clip Polygon, op clipOp) ([]Polygon, error) {
	if subject.IsEmpty() {
		switch op {
		case opIntersection, opDifference:
			return nil, nil
		default:
			if clip.IsEmpty() {
				return nil, nil
			}
			return []Polygon{clip}, nil
		}
	}
	if clip.IsEmpty() {
		if op == opIntersection {
			return nil, nil
		}
		return []Polygon{subject}, nil
	}
	// Perturbation ladder: exact, then three increasing deterministic shifts.
	deltas := []float64{0, 3e-10, 7e-9, 1.3e-7}
	var lastErr error
	for _, d := range deltas {
		c := clip
		if d != 0 {
			c = translatePolygon(clip, d, d*0.618)
		}
		res, err := clipOnce(subject, c, op)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func translatePolygon(p Polygon, dx, dy float64) Polygon {
	tr := func(r Ring) Ring {
		cs := make([]Point, len(r.Coords))
		for i, c := range r.Coords {
			cs[i] = Point{c.X + dx, c.Y + dy}
		}
		return Ring{Coords: cs}
	}
	out := Polygon{Exterior: tr(p.Exterior)}
	for _, h := range p.Holes {
		out.Holes = append(out.Holes, tr(h))
	}
	return out
}

// clipOnce runs a single Greiner-Hormann pass on the exterior rings, then
// reconciles holes.
func clipOnce(subject, clip Polygon, op clipOp) ([]Polygon, error) {
	subjList := buildList(subject.Exterior.Coords)
	clipList := buildList(clip.Exterior.Coords)
	if subjList == nil || clipList == nil {
		return nil, ErrDegenerateClip
	}

	// Phase 1: find and insert intersections.
	nIntersections, degenerate := insertIntersections(subjList, clipList)
	if degenerate {
		return nil, ErrDegenerateClip
	}

	if nIntersections == 0 {
		return clipDisjointOrNested(subject, clip, op), nil
	}

	// Phase 2: mark entry/exit.
	markEntries(subjList, clip, op == opUnion || op == opDifference)
	markEntries(clipList, subject, op == opUnion)

	// Phase 3: trace result rings.
	rings := traceRings(subjList)
	var out []Polygon
	for _, cs := range rings {
		if len(cs) < 3 {
			continue
		}
		cs = append(cs, cs[0])
		r := Ring{Coords: cs}
		if r.Area() < eps {
			continue
		}
		out = append(out, NewPolygon(r))
	}
	out = reconcileHoles(out, subject, clip, op)
	return out, nil
}

// insertIntersections finds all pairwise edge intersections and splices
// linked intersection vertices into both lists. It reports the count and
// whether a degenerate (endpoint/collinear) configuration was seen.
func insertIntersections(subjHead, clipHead *clipVertex) (int, bool) {
	count := 0
	const tolAlpha = 1e-12
	for s := subjHead; ; {
		sNext := nextNonIntersect(s)
		for c := clipHead; ; {
			cNext := nextNonIntersect(c)
			p, tS, tC, ok, degen := segParams(s.p, sNext.p, c.p, cNext.p)
			if degen {
				return 0, true
			}
			if ok {
				if tS < tolAlpha || tS > 1-tolAlpha || tC < tolAlpha || tC > 1-tolAlpha {
					return 0, true
				}
				is := &clipVertex{p: p, intersect: true, alpha: tS}
				ic := &clipVertex{p: p, intersect: true, alpha: tC}
				is.neighbor, ic.neighbor = ic, is
				insertSorted(s, sNext, is)
				insertSorted(c, cNext, ic)
				count++
			}
			c = cNext
			if c == clipHead {
				break
			}
		}
		s = sNext
		if s == subjHead {
			break
		}
	}
	return count, false
}

// segParams computes the intersection parameters of segments [a,b], [c,d].
// degen is reported for (near-)parallel overlapping segments or endpoint
// touches, which the caller resolves by perturbation.
func segParams(a, b, c, d Point) (Point, float64, float64, bool, bool) {
	d1 := Point{b.X - a.X, b.Y - a.Y}
	d2 := Point{d.X - c.X, d.Y - c.Y}
	denom := d1.X*d2.Y - d1.Y*d2.X
	scale := math.Abs(d1.X) + math.Abs(d1.Y) + math.Abs(d2.X) + math.Abs(d2.Y) + 1
	if math.Abs(denom) <= eps*scale {
		// Parallel. Degenerate only if collinear and overlapping.
		if orientation(a, b, c) == 0 && (onSegment(c, a, b) || onSegment(d, a, b) || onSegment(a, c, d)) {
			return Point{}, 0, 0, false, true
		}
		return Point{}, 0, 0, false, false
	}
	t := ((c.X-a.X)*d2.Y - (c.Y-a.Y)*d2.X) / denom
	u := ((c.X-a.X)*d1.Y - (c.Y-a.Y)*d1.X) / denom
	if t < -eps || t > 1+eps || u < -eps || u > 1+eps {
		return Point{}, 0, 0, false, false
	}
	return Point{a.X + t*d1.X, a.Y + t*d1.Y}, t, u, true, false
}

// nextNonIntersect returns the next original (non-intersection) vertex.
func nextNonIntersect(v *clipVertex) *clipVertex {
	n := v.next
	for n.intersect {
		n = n.next
	}
	return n
}

// insertSorted splices iv between from and to ordered by alpha.
func insertSorted(from, to, iv *clipVertex) {
	cur := from
	for cur.next != to && cur.next.intersect && cur.next.alpha < iv.alpha {
		cur = cur.next
	}
	iv.next = cur.next
	iv.prev = cur
	cur.next.prev = iv
	cur.next = iv
}

// markEntries walks a list and alternates entry/exit flags on intersection
// vertices, starting from whether the list's first vertex is inside the
// other polygon, optionally inverted (for union/difference variants).
func markEntries(head *clipVertex, other Polygon, invert bool) {
	inside := pointPolygonLocation(head.p, other) == 1
	entry := !inside
	if invert {
		entry = !entry
	}
	v := head
	for {
		if v.intersect {
			v.entry = entry
			entry = !entry
		}
		v = v.next
		if v == head {
			break
		}
	}
}

// traceRings walks unvisited intersections producing result rings.
func traceRings(subjHead *clipVertex) [][]Point {
	var rings [][]Point
	for {
		start := firstUnvisited(subjHead)
		if start == nil {
			break
		}
		var ring []Point
		v := start
		for {
			v.visited = true
			if v.neighbor != nil {
				v.neighbor.visited = true
			}
			if v.entry {
				for {
					v = v.next
					ring = append(ring, v.p)
					if v.intersect {
						break
					}
				}
			} else {
				for {
					v = v.prev
					ring = append(ring, v.p)
					if v.intersect {
						break
					}
				}
			}
			v = v.neighbor
			if v == nil || v == start || v.visited && v == start.neighbor {
				break
			}
			if v.visited {
				break
			}
		}
		// Deduplicate consecutive points.
		ring = dedupPoints(ring)
		if len(ring) >= 3 {
			rings = append(rings, ring)
		}
		if len(rings) > 10000 {
			break // safety valve against pathological loops
		}
	}
	return rings
}

func dedupPoints(cs []Point) []Point {
	var out []Point
	for _, p := range cs {
		if len(out) == 0 || !out[len(out)-1].Equal(p) {
			out = append(out, p)
		}
	}
	if len(out) > 1 && out[0].Equal(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

func firstUnvisited(head *clipVertex) *clipVertex {
	v := head
	for {
		if v.intersect && !v.visited {
			return v
		}
		v = v.next
		if v == head {
			return nil
		}
	}
}

// clipDisjointOrNested handles the no-intersection cases by containment.
// With no boundary crossings, one polygon is inside the other exactly when
// its envelope is contained and a representative point lies inside.
func clipDisjointOrNested(subject, clip Polygon, op clipOp) []Polygon {
	subjInClip := clip.Envelope().Contains(subject.Envelope()) &&
		pointPolygonLocation(RepresentativePoint(subject), clip) == 1
	clipInSubj := subject.Envelope().Contains(clip.Envelope()) &&
		pointPolygonLocation(RepresentativePoint(clip), subject) == 1
	switch op {
	case opIntersection:
		if subjInClip {
			return []Polygon{subject}
		}
		if clipInSubj {
			return []Polygon{clip}
		}
		return nil
	case opUnion:
		if subjInClip {
			return []Polygon{clip}
		}
		if clipInSubj {
			return []Polygon{subject}
		}
		return []Polygon{subject, clip}
	case opDifference:
		if subjInClip {
			return nil
		}
		if clipInSubj {
			// Clip becomes a hole in subject.
			h := clip.Exterior
			if h.IsCCW() {
				h = h.Reverse()
			}
			return []Polygon{{Exterior: subject.Exterior, Holes: append(append([]Ring{}, subject.Holes...), h)}}
		}
		return []Polygon{subject}
	}
	return nil
}

// reconcileHoles re-applies the input polygons' holes to the clip results.
// Holes of the subject (and, for intersection/union, of the clip) that fall
// inside a result polygon are clipped against it and attached.
func reconcileHoles(results []Polygon, subject, clip Polygon, op clipOp) []Polygon {
	holes := append([]Ring{}, subject.Holes...)
	if op != opDifference {
		holes = append(holes, clip.Holes...)
	}
	if len(holes) == 0 {
		return results
	}
	for i := range results {
		for _, h := range holes {
			hp := NewPolygon(h.Reverse())
			if Within(hp, results[i]) {
				hr := hp.Exterior
				if hr.IsCCW() {
					hr = hr.Reverse()
				}
				results[i].Holes = append(results[i].Holes, hr)
			}
		}
	}
	return results
}
