package geo

import (
	"strings"
	"testing"
)

func TestWKTRoundTripPoint(t *testing.T) {
	g, err := ParseWKT("POINT (23.5 37.9)")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.(Point)
	if !ok {
		t.Fatalf("type %T", g)
	}
	if p.X != 23.5 || p.Y != 37.9 {
		t.Fatalf("parsed %+v", p)
	}
	if got := p.WKT(); got != "POINT (23.5 37.9)" {
		t.Fatalf("WKT = %q", got)
	}
}

func TestWKTCaseInsensitive(t *testing.T) {
	for _, s := range []string{"point(1 2)", "Point (1 2)", "POINT(1 2)", "  POINT  ( 1   2 ) "} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if g.(Point) != (Point{1, 2}) {
			t.Fatalf("%q parsed to %+v", s, g)
		}
	}
}

func TestWKTLineString(t *testing.T) {
	g := mustParseWKT("LINESTRING (0 0, 1 1, 2 0)")
	l := g.(LineString)
	if len(l.Coords) != 3 {
		t.Fatalf("coords = %d", len(l.Coords))
	}
	round := mustParseWKT(l.WKT()).(LineString)
	if len(round.Coords) != 3 || round.Coords[2] != (Point{2, 0}) {
		t.Fatalf("round trip = %+v", round)
	}
}

func TestWKTPolygonWithHole(t *testing.T) {
	src := "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"
	g := mustParseWKT(src)
	p := g.(Polygon)
	if len(p.Holes) != 1 {
		t.Fatalf("holes = %d", len(p.Holes))
	}
	if p.Area() != 96 {
		t.Fatalf("area = %g", p.Area())
	}
	// Round trip preserves topology (not necessarily vertex order).
	p2 := mustParseWKT(p.WKT()).(Polygon)
	if p2.Area() != 96 || len(p2.Holes) != 1 {
		t.Fatalf("round trip area = %g holes = %d", p2.Area(), len(p2.Holes))
	}
}

func TestWKTMultiPointBothForms(t *testing.T) {
	a := mustParseWKT("MULTIPOINT ((1 2), (3 4))").(MultiPoint)
	b := mustParseWKT("MULTIPOINT (1 2, 3 4)").(MultiPoint)
	if len(a.Points) != 2 || len(b.Points) != 2 {
		t.Fatalf("lens = %d, %d", len(a.Points), len(b.Points))
	}
	if a.Points[1] != b.Points[1] {
		t.Fatalf("forms disagree: %+v vs %+v", a.Points[1], b.Points[1])
	}
}

func TestWKTMultiLineString(t *testing.T) {
	g := mustParseWKT("MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))")
	m := g.(MultiLineString)
	if len(m.Lines) != 2 || len(m.Lines[1].Coords) != 3 {
		t.Fatalf("parsed %+v", m)
	}
	if !strings.HasPrefix(m.WKT(), "MULTILINESTRING ((") {
		t.Fatalf("WKT = %q", m.WKT())
	}
}

func TestWKTMultiPolygon(t *testing.T) {
	g := mustParseWKT("MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))")
	m := g.(MultiPolygon)
	if len(m.Polygons) != 2 {
		t.Fatalf("polygons = %d", len(m.Polygons))
	}
	if m.Area() != 2 {
		t.Fatalf("area = %g", m.Area())
	}
	round := mustParseWKT(m.WKT()).(MultiPolygon)
	if round.Area() != 2 {
		t.Fatalf("round trip area = %g", round.Area())
	}
}

func TestWKTGeometryCollection(t *testing.T) {
	g := mustParseWKT("GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))")
	gc := g.(GeometryCollection)
	if len(gc.Geometries) != 2 {
		t.Fatalf("members = %d", len(gc.Geometries))
	}
	round := mustParseWKT(gc.WKT()).(GeometryCollection)
	if len(round.Geometries) != 2 {
		t.Fatalf("round trip members = %d", len(round.Geometries))
	}
}

func TestWKTEmpties(t *testing.T) {
	for _, s := range []string{
		"POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY",
		"MULTIPOINT EMPTY", "MULTILINESTRING EMPTY", "MULTIPOLYGON EMPTY",
		"GEOMETRYCOLLECTION EMPTY",
	} {
		g, err := ParseWKT(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if !g.IsEmpty() {
			t.Fatalf("%q not empty", s)
		}
		if got := g.WKT(); got != s {
			t.Fatalf("%q round trips to %q", s, got)
		}
	}
}

func TestWKTErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"CIRCLE (0 0, 1)",
		"POINT (1)",
		"POINT (1 2",
		"POINT (1 2) extra",
		"POLYGON ((0 0, 1 0, 1 1))",          // too few coords
		"POLYGON ((0 0, 1 0, 1 1, 2 2))",     // not closed
		"LINESTRING (0 0, x 1)",              // bad number
		"MULTIPOLYGON (((0 0, 1 0, 0 0 1)))", // malformed
	} {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) succeeded, want error", s)
		}
	}
}

func TestWKTScientificNotation(t *testing.T) {
	g := mustParseWKT("POINT (1.5e2 -2.5E-1)")
	p := g.(Point)
	if p.X != 150 || p.Y != -0.25 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestMustParseWKTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mustParseWKT("NOT A GEOMETRY")
}

func TestWKTPropertyRoundTrip(t *testing.T) {
	// Round-trip property over a grid of generated rectangles and lines.
	for i := 0; i < 50; i++ {
		x := float64(i%7) - 3
		y := float64(i%5) - 2
		w := float64(i%3) + 1
		h := float64(i%4) + 1
		p := Rect(x, y, x+w, y+h)
		got := mustParseWKT(p.WKT()).(Polygon)
		if got.Area() != p.Area() {
			t.Fatalf("area changed: %g -> %g", p.Area(), got.Area())
		}
		l := NewLineString(Point{x, y}, Point{x + w, y + h}, Point{x - w, y})
		gl := mustParseWKT(l.WKT()).(LineString)
		if gl.Length() != l.Length() {
			t.Fatalf("length changed: %g -> %g", l.Length(), gl.Length())
		}
	}
}

// mustParseWKT parses s and panics on error.
func mustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}
