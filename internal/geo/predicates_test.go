package geo

import "testing"

func TestIntersectsPolygons(t *testing.T) {
	a := Rect(0, 0, 4, 4)
	b := Rect(2, 2, 6, 6)
	c := Rect(10, 10, 12, 12)
	if !Intersects(a, b) {
		t.Fatal("overlapping rects should intersect")
	}
	if Intersects(a, c) {
		t.Fatal("disjoint rects should not intersect")
	}
	if !Disjoint(a, c) {
		t.Fatal("Disjoint failed")
	}
	// Nested (no boundary crossing).
	inner := Rect(1, 1, 2, 2)
	if !Intersects(a, inner) {
		t.Fatal("nested rects should intersect")
	}
	// Touching at an edge.
	edge := Rect(4, 0, 8, 4)
	if !Intersects(a, edge) {
		t.Fatal("edge-touching rects should intersect")
	}
}

func TestIntersectsPointGeoms(t *testing.T) {
	poly := Rect(0, 0, 4, 4)
	if !Intersects(Point{X: 2, Y: 2}, poly) {
		t.Fatal("interior point")
	}
	if !Intersects(Point{X: 0, Y: 0}, poly) {
		t.Fatal("corner point")
	}
	if Intersects(Point{X: 5, Y: 5}, poly) {
		t.Fatal("outside point")
	}
	line := NewLineString(Point{0, 0}, Point{4, 4})
	if !Intersects(Point{X: 2, Y: 2}, line) {
		t.Fatal("point on line")
	}
	if Intersects(Point{X: 2, Y: 3}, line) {
		t.Fatal("point off line")
	}
	mp := MultiPoint{Points: []Point{{9, 9}, {2, 2}}}
	if !Intersects(mp, poly) {
		t.Fatal("multipoint with one member inside")
	}
}

func TestIntersectsLines(t *testing.T) {
	a := NewLineString(Point{0, 0}, Point{4, 4})
	b := NewLineString(Point{0, 4}, Point{4, 0})
	c := NewLineString(Point{5, 0}, Point{9, 4})
	if !Intersects(a, b) {
		t.Fatal("crossing lines")
	}
	if Intersects(a, c) {
		t.Fatal("parallel disjoint lines")
	}
	// Line through polygon without any vertex inside.
	poly := Rect(1, 1, 3, 3)
	span := NewLineString(Point{0, 2}, Point{4, 2})
	if !Intersects(span, poly) {
		t.Fatal("line crossing polygon")
	}
}

func TestWithinContains(t *testing.T) {
	outer := Rect(0, 0, 10, 10)
	inner := Rect(2, 2, 4, 4)
	if !Within(inner, outer) {
		t.Fatal("inner within outer")
	}
	if !Contains(outer, inner) {
		t.Fatal("outer contains inner")
	}
	if Within(outer, inner) {
		t.Fatal("outer not within inner")
	}
	if !Within(Point{X: 5, Y: 5}, outer) {
		t.Fatal("point within polygon")
	}
	if Within(Point{X: 11, Y: 5}, outer) {
		t.Fatal("outside point not within")
	}
	line := NewLineString(Point{1, 1}, Point{9, 9})
	if !Within(line, outer) {
		t.Fatal("line within polygon")
	}
	crossing := NewLineString(Point{5, 5}, Point{15, 5})
	if Within(crossing, outer) {
		t.Fatal("crossing line not within")
	}
}

func TestWithinWithHole(t *testing.T) {
	donut := NewPolygon(
		NewRing(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}),
		NewRing(Point{4, 4}, Point{6, 4}, Point{6, 6}, Point{4, 6}),
	)
	if Within(Point{X: 5, Y: 5}, donut) {
		t.Fatal("point in hole should not be within")
	}
	if !Within(Point{X: 2, Y: 2}, donut) {
		t.Fatal("point in annulus should be within")
	}
	inHole := Rect(4.5, 4.5, 5.5, 5.5)
	if Within(inHole, donut) {
		t.Fatal("rect inside hole should not be within")
	}
	if !Intersects(Point{X: 4, Y: 5}, donut) {
		t.Fatal("hole boundary belongs to polygon")
	}
}

func TestTouches(t *testing.T) {
	a := Rect(0, 0, 4, 4)
	edge := Rect(4, 0, 8, 4)
	corner := Rect(4, 4, 8, 8)
	overlap := Rect(2, 2, 6, 6)
	if !Touches(a, edge) {
		t.Fatal("edge-adjacent rects touch")
	}
	if !Touches(a, corner) {
		t.Fatal("corner-adjacent rects touch")
	}
	if Touches(a, overlap) {
		t.Fatal("overlapping rects do not touch")
	}
	if Touches(a, Rect(9, 9, 10, 10)) {
		t.Fatal("disjoint rects do not touch")
	}
	// Point on boundary touches.
	if !Touches(Point{X: 4, Y: 2}, a) {
		t.Fatal("boundary point touches polygon")
	}
	if Touches(Point{X: 2, Y: 2}, a) {
		t.Fatal("interior point does not touch")
	}
	// Line ending on boundary.
	l := NewLineString(Point{4, 2}, Point{9, 2})
	if !Touches(l, a) {
		t.Fatal("line ending on boundary touches")
	}
}

func TestCrosses(t *testing.T) {
	poly := Rect(0, 0, 4, 4)
	through := NewLineString(Point{-1, 2}, Point{5, 2})
	inside := NewLineString(Point{1, 1}, Point{3, 3})
	if !Crosses(through, poly) {
		t.Fatal("line through polygon crosses")
	}
	if Crosses(inside, poly) {
		t.Fatal("contained line does not cross")
	}
	a := NewLineString(Point{0, 0}, Point{4, 4})
	b := NewLineString(Point{0, 4}, Point{4, 0})
	if !Crosses(a, b) {
		t.Fatal("crossing lines")
	}
	mp := MultiPoint{Points: []Point{{2, 2}, {9, 9}}}
	if !Crosses(mp, poly) {
		t.Fatal("multipoint half-in crosses polygon")
	}
}

func TestOverlaps(t *testing.T) {
	a := Rect(0, 0, 4, 4)
	b := Rect(2, 2, 6, 6)
	if !Overlaps(a, b) {
		t.Fatal("partially overlapping rects overlap")
	}
	if Overlaps(a, Rect(1, 1, 2, 2)) {
		t.Fatal("containment is not overlap")
	}
	if Overlaps(a, Rect(4, 0, 8, 4)) {
		t.Fatal("touching is not overlap")
	}
	line := NewLineString(Point{0, 2}, Point{6, 2})
	if Overlaps(a, line) {
		t.Fatal("different dimensions never overlap")
	}
}

func TestEqualsPredicate(t *testing.T) {
	a := Rect(0, 0, 4, 4)
	// Same region, different vertex order/start.
	b := NewPolygon(NewRing(Point{4, 0}, Point{4, 4}, Point{0, 4}, Point{0, 0}))
	if !Equals(a, b) {
		t.Fatal("same rectangles should be equal")
	}
	if Equals(a, Rect(0, 0, 4, 5)) {
		t.Fatal("different rectangles not equal")
	}
	if !Equals(Polygon{}, Polygon{}) {
		t.Fatal("two empties are equal")
	}
}

func TestPointRingLocation(t *testing.T) {
	r := NewRing(Point{0, 0}, Point{4, 0}, Point{4, 4}, Point{0, 4})
	if pointRingLocation(Point{2, 2}, r) != 1 {
		t.Fatal("interior")
	}
	if pointRingLocation(Point{0, 2}, r) != 0 {
		t.Fatal("boundary edge")
	}
	if pointRingLocation(Point{4, 4}, r) != 0 {
		t.Fatal("boundary vertex")
	}
	if pointRingLocation(Point{5, 2}, r) != -1 {
		t.Fatal("exterior")
	}
}

func TestPointInConcavePolygon(t *testing.T) {
	// U-shaped polygon.
	u := NewPolygon(NewRing(
		Point{0, 0}, Point{6, 0}, Point{6, 6}, Point{4, 6},
		Point{4, 2}, Point{2, 2}, Point{2, 6}, Point{0, 6},
	))
	if pointPolygonLocation(Point{3, 4}, u) != -1 {
		t.Fatal("notch point should be outside")
	}
	if pointPolygonLocation(Point{1, 1}, u) != 1 {
		t.Fatal("left leg inside")
	}
	if pointPolygonLocation(Point{5, 5}, u) != 1 {
		t.Fatal("right leg inside")
	}
	rp := RepresentativePoint(u)
	if pointPolygonLocation(rp, u) != 1 {
		t.Fatalf("representative point %+v not interior", rp)
	}
}

func TestRepresentativePointDonut(t *testing.T) {
	donut := NewPolygon(
		NewRing(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}),
		NewRing(Point{3, 3}, Point{7, 3}, Point{7, 7}, Point{3, 7}),
	)
	rp := RepresentativePoint(donut)
	if pointPolygonLocation(rp, donut) != 1 {
		t.Fatalf("representative point %+v not in annulus", rp)
	}
}

func TestSegmentsIntersectEdgeCases(t *testing.T) {
	// Collinear overlapping.
	if !segmentsIntersect(Point{0, 0}, Point{4, 0}, Point{2, 0}, Point{6, 0}) {
		t.Fatal("collinear overlap")
	}
	// Collinear disjoint.
	if segmentsIntersect(Point{0, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}) {
		t.Fatal("collinear disjoint")
	}
	// T-junction.
	if !segmentsIntersect(Point{0, 0}, Point{4, 0}, Point{2, -2}, Point{2, 0}) {
		t.Fatal("T junction")
	}
	// Shared endpoint.
	if !segmentsIntersect(Point{0, 0}, Point{1, 1}, Point{1, 1}, Point{2, 0}) {
		t.Fatal("shared endpoint")
	}
}

func TestPredicatesEmptyAndNil(t *testing.T) {
	if Intersects(nil, Rect(0, 0, 1, 1)) {
		t.Fatal("nil never intersects")
	}
	if Intersects(Polygon{}, Rect(0, 0, 1, 1)) {
		t.Fatal("empty never intersects")
	}
	if Within(Polygon{}, Rect(0, 0, 1, 1)) {
		t.Fatal("empty not within")
	}
	if !Equals(nil, nil) {
		t.Fatal("nil equals nil")
	}
}

func TestIntersectsSymmetryProperty(t *testing.T) {
	geoms := []Geometry{
		Rect(0, 0, 4, 4),
		Rect(2, 2, 6, 6),
		Rect(10, 10, 11, 11),
		NewLineString(Point{-1, 2}, Point{5, 2}),
		Point{X: 2, Y: 2},
		Point{X: 20, Y: 20},
		MultiPoint{Points: []Point{{1, 1}, {3, 9}}},
	}
	for i, a := range geoms {
		for j, b := range geoms {
			if Intersects(a, b) != Intersects(b, a) {
				t.Errorf("Intersects not symmetric for %d,%d", i, j)
			}
			if Touches(a, b) != Touches(b, a) {
				t.Errorf("Touches not symmetric for %d,%d", i, j)
			}
		}
	}
}

func TestWithinTransitivityProperty(t *testing.T) {
	a := Rect(3, 3, 4, 4)
	b := Rect(2, 2, 5, 5)
	c := Rect(0, 0, 10, 10)
	if !Within(a, b) || !Within(b, c) {
		t.Fatal("setup")
	}
	if !Within(a, c) {
		t.Fatal("Within should be transitive")
	}
}
