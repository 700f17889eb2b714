package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointBasics(t *testing.T) {
	p := Point{X: 23.7, Y: 37.9}
	if p.Type() != TypePoint {
		t.Fatalf("Type = %v", p.Type())
	}
	if p.Dimension() != 0 {
		t.Fatalf("Dimension = %d", p.Dimension())
	}
	if p.IsEmpty() {
		t.Fatal("point should not be empty")
	}
	env := p.Envelope()
	if env.MinX != 23.7 || env.MaxY != 37.9 {
		t.Fatalf("Envelope = %+v", env)
	}
	if !p.Equal(Point{X: 23.7, Y: 37.9}) {
		t.Fatal("Equal failed")
	}
	if p.Equal(Point{X: 23.7, Y: 38.0}) {
		t.Fatal("Equal matched different points")
	}
}

func TestEmptyPoint(t *testing.T) {
	p := Point{X: math.NaN(), Y: math.NaN()}
	if !p.IsEmpty() {
		t.Fatal("NaN point should be empty")
	}
	if p.WKT() != "POINT EMPTY" {
		t.Fatalf("WKT = %q", p.WKT())
	}
}

func TestLineStringLength(t *testing.T) {
	l := NewLineString(Point{0, 0}, Point{3, 0}, Point{3, 4})
	if got := l.Length(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("Length = %g, want 7", got)
	}
}

func TestRingAreaWinding(t *testing.T) {
	ccw := NewRing(Point{0, 0}, Point{4, 0}, Point{4, 3}, Point{0, 3})
	if !ccw.IsCCW() {
		t.Fatal("ccw ring not detected")
	}
	if got := ccw.Area(); got != 12 {
		t.Fatalf("Area = %g, want 12", got)
	}
	cw := ccw.Reverse()
	if cw.IsCCW() {
		t.Fatal("cw ring reported ccw")
	}
	if got := cw.SignedArea(); got != -12 {
		t.Fatalf("SignedArea = %g, want -12", got)
	}
}

func TestNewRingCloses(t *testing.T) {
	r := NewRing(Point{0, 0}, Point{1, 0}, Point{1, 1})
	if len(r.Coords) != 4 {
		t.Fatalf("len = %d, want 4", len(r.Coords))
	}
	if !r.Coords[0].Equal(r.Coords[3]) {
		t.Fatal("ring not closed")
	}
}

func TestPolygonAreaWithHole(t *testing.T) {
	outer := NewRing(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10})
	hole := NewRing(Point{2, 2}, Point{4, 2}, Point{4, 4}, Point{2, 4})
	p := NewPolygon(outer, hole)
	if got := p.Area(); got != 96 {
		t.Fatalf("Area = %g, want 96", got)
	}
	if !p.Exterior.IsCCW() {
		t.Fatal("exterior should be CCW after normalisation")
	}
	if p.Holes[0].IsCCW() {
		t.Fatal("hole should be CW after normalisation")
	}
	if p.Dimension() != 2 {
		t.Fatalf("Dimension = %d", p.Dimension())
	}
}

func TestPolygonPerimeter(t *testing.T) {
	p := Rect(0, 0, 3, 4)
	if got := p.Perimeter(); math.Abs(got-14) > 1e-12 {
		t.Fatalf("Perimeter = %g, want 14", got)
	}
}

func TestEnvelopeOps(t *testing.T) {
	e := EmptyEnvelope()
	if !e.IsEmpty() {
		t.Fatal("EmptyEnvelope not empty")
	}
	e = e.ExtendPoint(1, 2).ExtendPoint(3, -1)
	want := Envelope{MinX: 1, MinY: -1, MaxX: 3, MaxY: 2}
	if e != want {
		t.Fatalf("Extend = %+v, want %+v", e, want)
	}
	if e.Width() != 2 || e.Height() != 3 {
		t.Fatalf("W/H = %g/%g", e.Width(), e.Height())
	}
	o := Envelope{MinX: 2, MinY: 0, MaxX: 5, MaxY: 5}
	if !e.Intersects(o) {
		t.Fatal("envelopes should intersect")
	}
	inter := e.Intersection(o)
	if inter.MinX != 2 || inter.MaxX != 3 || inter.MinY != 0 || inter.MaxY != 2 {
		t.Fatalf("Intersection = %+v", inter)
	}
	far := Envelope{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}
	if e.Intersects(far) {
		t.Fatal("disjoint envelopes reported intersecting")
	}
	if !e.Intersection(far).IsEmpty() {
		t.Fatal("disjoint intersection should be empty")
	}
	if !o.Contains(Envelope{MinX: 3, MinY: 1, MaxX: 4, MaxY: 2}) {
		t.Fatal("Contains failed")
	}
	if !e.ContainsPoint(2, 0) {
		t.Fatal("ContainsPoint failed on boundary")
	}
	if c := e.Center(); c != (Point{2, 0.5}) {
		t.Fatalf("Center = %+v", c)
	}
}

func TestEnvelopeExtendIdentity(t *testing.T) {
	e := Envelope{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if got := e.Extend(EmptyEnvelope()); got != e {
		t.Fatalf("Extend(empty) = %+v", got)
	}
	if got := EmptyEnvelope().Extend(e); got != e {
		t.Fatalf("empty.Extend = %+v", got)
	}
}

func TestEnvelopeExtendCommutative(t *testing.T) {
	f := func(a, b, c, d, e2, f2, g, h float64) bool {
		e1 := EmptyEnvelope().ExtendPoint(a, b).ExtendPoint(c, d)
		o1 := EmptyEnvelope().ExtendPoint(e2, f2).ExtendPoint(g, h)
		return e1.Extend(o1) == o1.Extend(e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeIntersectsSymmetric(t *testing.T) {
	f := func(a, b, c, d, e2, f2, g, h float64) bool {
		e1 := EmptyEnvelope().ExtendPoint(a, b).ExtendPoint(c, d)
		o1 := EmptyEnvelope().ExtendPoint(e2, f2).ExtendPoint(g, h)
		return e1.Intersects(o1) == o1.Intersects(e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiGeometryEnvelopes(t *testing.T) {
	mp := MultiPoint{Points: []Point{{0, 0}, {5, 5}}}
	if env := mp.Envelope(); env.MaxX != 5 || env.MinY != 0 {
		t.Fatalf("MultiPoint envelope = %+v", env)
	}
	ml := MultiLineString{Lines: []LineString{
		NewLineString(Point{0, 0}, Point{1, 1}),
		NewLineString(Point{-3, 2}, Point{4, -2}),
	}}
	if env := ml.Envelope(); env.MinX != -3 || env.MaxX != 4 {
		t.Fatalf("MultiLineString envelope = %+v", env)
	}
	mpoly := MultiPolygon{Polygons: []Polygon{Rect(0, 0, 1, 1), Rect(5, 5, 7, 9)}}
	if got := mpoly.Area(); got != 9 {
		t.Fatalf("MultiPolygon area = %g", got)
	}
	gc := GeometryCollection{Geometries: []Geometry{mp, ml, mpoly}}
	if gc.Dimension() != 2 {
		t.Fatalf("collection dimension = %d", gc.Dimension())
	}
	if env := gc.Envelope(); env.MaxY != 9 {
		t.Fatalf("collection envelope = %+v", env)
	}
}

func TestGeometryTypeString(t *testing.T) {
	cases := map[GeometryType]string{
		TypePoint:              "POINT",
		TypeLineString:         "LINESTRING",
		TypePolygon:            "POLYGON",
		TypeMultiPoint:         "MULTIPOINT",
		TypeMultiLineString:    "MULTILINESTRING",
		TypeMultiPolygon:       "MULTIPOLYGON",
		TypeGeometryCollection: "GEOMETRYCOLLECTION",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(Rect(0, 0, 1, 1)); err != nil {
		t.Fatalf("valid rect: %v", err)
	}
	bad := Polygon{Exterior: Ring{Coords: []Point{{0, 0}, {1, 0}, {0, 0}}}}
	if err := Validate(bad); err == nil {
		t.Fatal("expected error for 3-coordinate ring")
	}
	open := Polygon{Exterior: Ring{Coords: []Point{{0, 0}, {1, 0}, {1, 1}, {2, 2}}}}
	if err := Validate(open); err == nil {
		t.Fatal("expected error for unclosed ring")
	}
	if err := Validate(LineString{Coords: []Point{{1, 1}}}); err == nil {
		t.Fatal("expected error for 1-point line")
	}
	if err := Validate(GeometryCollection{Geometries: []Geometry{Rect(0, 0, 1, 1), Point{X: 1, Y: 2}}}); err != nil {
		t.Fatalf("valid collection: %v", err)
	}
}
