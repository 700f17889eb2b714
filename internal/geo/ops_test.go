package geo

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistance(t *testing.T) {
	if d := Distance(Point{X: 0, Y: 0}, Point{X: 3, Y: 4}); d != 5 {
		t.Fatalf("point distance = %g", d)
	}
	if d := Distance(Rect(0, 0, 1, 1), Rect(3, 0, 4, 1)); d != 2 {
		t.Fatalf("rect distance = %g", d)
	}
	if d := Distance(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)); d != 0 {
		t.Fatalf("overlapping distance = %g", d)
	}
	line := NewLineString(Point{0, 2}, Point{4, 2})
	if d := Distance(Point{X: 2, Y: 0}, line); d != 2 {
		t.Fatalf("point-line distance = %g", d)
	}
	// Distance to a point past the segment end uses the endpoint.
	if d := Distance(Point{X: 6, Y: 2}, line); d != 2 {
		t.Fatalf("endpoint distance = %g", d)
	}
	if !math.IsInf(Distance(Polygon{}, Point{X: 0, Y: 0}), 1) {
		t.Fatal("empty distance should be +Inf")
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid(Rect(0, 0, 4, 2))
	if !almostEq(c.X, 2, 1e-9) || !almostEq(c.Y, 1, 1e-9) {
		t.Fatalf("rect centroid = %+v", c)
	}
	lc := Centroid(NewLineString(Point{0, 0}, Point{4, 0}))
	if !almostEq(lc.X, 2, 1e-9) || !almostEq(lc.Y, 0, 1e-9) {
		t.Fatalf("line centroid = %+v", lc)
	}
	mc := Centroid(MultiPoint{Points: []Point{{0, 0}, {2, 2}}})
	if !almostEq(mc.X, 1, 1e-9) {
		t.Fatalf("multipoint centroid = %+v", mc)
	}
	// Donut centroid stays at center by symmetry.
	donut := NewPolygon(
		NewRing(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}),
		NewRing(Point{4, 4}, Point{6, 4}, Point{6, 6}, Point{4, 6}),
	)
	dc := Centroid(donut)
	if !almostEq(dc.X, 5, 1e-9) || !almostEq(dc.Y, 5, 1e-9) {
		t.Fatalf("donut centroid = %+v", dc)
	}
	// Asymmetric hole pulls the centroid away.
	lop := NewPolygon(
		NewRing(Point{0, 0}, Point{10, 0}, Point{10, 10}, Point{0, 10}),
		NewRing(Point{6, 4}, Point{9, 4}, Point{9, 6}, Point{6, 6}),
	)
	lc2 := Centroid(lop)
	if lc2.X >= 5 {
		t.Fatalf("hole on the right should pull centroid left: %+v", lc2)
	}
}

func TestAreaLength(t *testing.T) {
	if Area(Rect(0, 0, 3, 3)) != 9 {
		t.Fatal("rect area")
	}
	if Area(NewLineString(Point{0, 0}, Point{1, 1})) != 0 {
		t.Fatal("line area should be 0")
	}
	if Length(NewLineString(Point{0, 0}, Point{0, 5})) != 5 {
		t.Fatal("line length")
	}
	if Length(Rect(0, 0, 1, 1)) != 4 {
		t.Fatal("rect perimeter")
	}
	gc := GeometryCollection{Geometries: []Geometry{Rect(0, 0, 2, 2), Rect(5, 5, 6, 6)}}
	if Area(gc) != 5 {
		t.Fatal("collection area")
	}
}

func TestBufferPoint(t *testing.T) {
	b := Buffer(Point{X: 0, Y: 0}, 1, 8)
	p, ok := b.(Polygon)
	if !ok {
		t.Fatalf("buffer type %T", b)
	}
	// Area approaches pi from below.
	if p.Area() < 3.0 || p.Area() > math.Pi {
		t.Fatalf("circle area = %g", p.Area())
	}
	if !Within(Point{X: 0.5, Y: 0.5}, p) {
		t.Fatal("interior point of buffer")
	}
	if Within(Point{X: 1.2, Y: 0}, p) {
		t.Fatal("exterior point of buffer")
	}
}

func TestBufferLine(t *testing.T) {
	l := NewLineString(Point{0, 0}, Point{10, 0})
	b := Buffer(l, 1, 8)
	area := Area(b)
	// Capsule area = 2*d*len + pi*d^2 = 20 + pi.
	want := 20 + math.Pi
	if !almostEq(area, want, 0.5) {
		t.Fatalf("capsule area = %g, want ~%g", area, want)
	}
	if !Intersects(b, Point{X: 5, Y: 0.9}) {
		t.Fatal("point inside capsule")
	}
	if Intersects(b, Point{X: 5, Y: 1.5}) {
		t.Fatal("point outside capsule")
	}
}

func TestBufferPolygonGrows(t *testing.T) {
	p := Rect(0, 0, 4, 4)
	b := Buffer(p, 1, 4)
	if Area(b) <= p.Area() {
		t.Fatalf("buffered area %g should exceed %g", Area(b), p.Area())
	}
	if !Within(p, b) {
		t.Fatal("original should lie within its outward buffer")
	}
}

func TestBufferZeroAndEmpty(t *testing.T) {
	p := Rect(0, 0, 1, 1)
	if g := Buffer(p, 0, 8); !Equals(g, p) {
		t.Fatal("zero buffer should be identity")
	}
	if g := Buffer(Polygon{}, 1, 8); !g.IsEmpty() {
		t.Fatal("buffer of empty should be empty")
	}
	if g := Buffer(p, -1, 8); !g.IsEmpty() {
		t.Fatal("negative buffer approximated as empty")
	}
}

func TestTransformRoundTrip(t *testing.T) {
	p := Point{X: 23.7275, Y: 37.9838} // Athens
	for _, to := range []SRID{SRIDWebMercator, SRIDGreekGrid} {
		g, err := Transform(p, SRIDWGS84, to)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Transform(g, to, SRIDWGS84)
		if err != nil {
			t.Fatal(err)
		}
		q := back.(Point)
		if !almostEq(q.X, p.X, 1e-6) || !almostEq(q.Y, p.Y, 1e-6) {
			t.Fatalf("SRID %d round trip %+v -> %+v", to, p, q)
		}
	}
}

func TestTransformIdentityAndErrors(t *testing.T) {
	p := Point{X: 1, Y: 2}
	g, err := Transform(p, SRIDWGS84, SRIDWGS84)
	if err != nil || g.(Point) != p {
		t.Fatalf("identity transform: %v %v", g, err)
	}
	if _, err := Transform(p, SRID(9999), SRIDWGS84); err == nil {
		t.Fatal("unknown source SRID should error")
	}
	if _, err := Transform(p, SRIDWGS84, SRID(9999)); err == nil {
		t.Fatal("unknown target SRID should error")
	}
	// CRS84 aliases 4326.
	g, err = Transform(p, SRIDCRS84, SRIDWGS84)
	if err != nil || g.(Point) != p {
		t.Fatal("CRS84 alias")
	}
}

func TestTransformPolygonPreservesTopology(t *testing.T) {
	poly := Rect(23, 37, 24, 38)
	g, err := Transform(poly, SRIDWGS84, SRIDWebMercator)
	if err != nil {
		t.Fatal(err)
	}
	tp := g.(Polygon)
	if err := Validate(tp); err != nil {
		t.Fatal(err)
	}
	if tp.Area() <= 0 {
		t.Fatal("projected polygon should have positive area")
	}
}

func TestGeodesicDistanceMeters(t *testing.T) {
	a := Point{X: 23.0, Y: 38.0}
	b := Point{X: 23.0, Y: 38.1} // 0.1 deg lat ~ 11.1 km
	d := GeodesicDistanceMeters(a, b)
	if d < 10e3 || d > 12.5e3 {
		t.Fatalf("0.1 deg lat = %g m", d)
	}
	if GeodesicDistanceMeters(Rect(22, 37, 24, 39), a) != 0 {
		t.Fatal("contained point distance should be 0")
	}
}

// TestAntimeridian: the metric normalises longitude differences into
// [-180°, 180°], on the point fast path and the general path alike, and
// a distance probe whose widened box would reach ±180° spans every
// longitude, so a pair across the antimeridian is measured and found.
func TestAntimeridian(t *testing.T) {
	east, west := Point{X: 179.99, Y: 10}, Point{X: -179.99, Y: 10}
	across := 0.02 * earthRadiusM * deg2rad * math.Cos(10*deg2rad) // 0.02° of longitude at 10°N: ≈2.2 km
	cases := []struct {
		name     string
		a, b     Geometry
		min, max float64
	}{
		{"points east-west", east, west, across - 1, across + 1},
		{"points west-east", west, east, across - 1, across + 1},
		{"point to polygon", west, Rect(179.9, 9.9, 179.98, 10.1), 1.5 * across, 1.5*across + 1},
		{"polygon to point", Rect(179.9, 9.9, 179.98, 10.1), west, 1.5 * across, 1.5*across + 1},
		{"multipoint (general path)", MultiPoint{Points: []Point{east}}, west, across - 1, across + 1},
		{"polygons (general path)", Rect(179.9, 9.9, 179.99, 10.1), Rect(-179.99, 9.9, -179.9, 10.1), across - 1, across + 1},
		{"10° on either side of the antimeridian", Point{X: 170, Y: 10}, Point{X: -170, Y: 10}, 2.18e6, 2.2e6},
		{"10° on either side of Greenwich", Point{X: 10, Y: 10}, Point{X: -10, Y: 10}, 2.18e6, 2.2e6},
	}
	for _, c := range cases {
		if d := GeodesicDistanceMeters(c.a, c.b); !(d >= c.min && d <= c.max) {
			t.Errorf("%s: %.1f m, want [%.1f, %.1f]", c.name, d, c.min, c.max)
		}
	}
	for _, p := range []Point{east, west} {
		e := ExpandMeters(p.Envelope(), 3000, 10)
		if !math.IsInf(e.MinX, -1) || !math.IsInf(e.MaxX, 1) {
			t.Errorf("a 3 km probe at %v spans %v, want every longitude", p, e)
		}
		if !(e.MinY < 9.98 && e.MinY > 9.97 && e.MaxY > 10.02 && e.MaxY < 10.03) {
			t.Errorf("a 3 km probe at %v spans latitudes %v, want 10° ± 0.027°", p, e)
		}
	}
	if e := ExpandMeters(Point{X: 179, Y: 10}.Envelope(), 3000, 10); math.IsInf(e.MinX, 0) || math.IsInf(e.MaxX, 0) || e.MaxX >= 180 {
		t.Errorf("a 3 km probe at 179°E spans %v, want a box short of the antimeridian", e)
	}
}

// TestExpandMeters: every geometry GeodesicDistanceMeters places within
// r of a probe meets ExpandMeters(probe envelope, r, L), at any latitude,
// whether L bounds that geometry's latitudes or is 90. The 60°N and
// polar points are what a fixed 78 km-per-degree widening got wrong;
// the tall footprint at 60°N is what a widening at the probe's own
// latitude got wrong.
func TestExpandMeters(t *testing.T) {
	maxLat := func(g Geometry) float64 {
		e := g.Envelope()
		return math.Max(math.Abs(e.MinY), math.Abs(e.MaxY))
	}
	covers := func(a, b Geometry, r float64) bool {
		return ExpandMeters(a.Envelope(), r, maxLat(b)).Intersects(b.Envelope()) &&
			ExpandMeters(a.Envelope(), r, 90).Intersects(b.Envelope())
	}
	probe, near := Point{X: 10.09, Y: 60}, Point{X: 10.0, Y: 60}
	if d := GeodesicDistanceMeters(probe, near); d > 5100 || !covers(probe, near, 6000) {
		t.Fatalf("60°N: %.0f m apart, not covered by a 6 km widening", d)
	}
	pe, deg := probe.Envelope(), 6000.0/78000
	if (Envelope{MinX: pe.MinX - deg, MinY: pe.MinY - deg, MaxX: pe.MaxX + deg, MaxY: pe.MaxY + deg}).Intersects(near.Envelope()) {
		t.Fatal("the 78 km-per-degree widening covers the 60°N pair; the case no longer shows the defect")
	}
	// A footprint spanning 60–64°N is measured on a plane centred at
	// 62°N, where a degree of longitude is shorter than at the probe.
	tall := Rect(10.201, 60, 11.201, 64)
	if d := GeodesicDistanceMeters(probe, tall); d >= 6000 || !covers(probe, tall, 6000) {
		t.Fatalf("tall footprint: %.0f m apart, not covered by a 6 km widening", d)
	}
	if ExpandMeters(probe.Envelope(), 6000, 60.06).Intersects(tall.Envelope()) {
		t.Fatal("a widening at the probe's own latitude covers the footprint; the case no longer shows the defect")
	}
	polar, across := Point{X: 0, Y: 89.99}, Point{X: 170, Y: 89.99}
	if d := GeodesicDistanceMeters(polar, across); d >= 6000 || !covers(polar, across, 6000) {
		t.Fatalf("pole: %.0f m apart, not covered by a 6 km widening", d)
	}
	if e := ExpandMeters(polar.Envelope(), 6000, 90); !math.IsInf(e.MinX, -1) || !math.IsInf(e.MaxX, 1) {
		t.Fatalf("a widening past the pole spans %v, want every longitude", e)
	}

	rng := rand.New(rand.NewSource(1))
	checked, checkedTall := 0, 0
	for i := 0; i < 40000; i++ {
		lat := -89.9 + rng.Float64()*179.8
		r := 100 + rng.Float64()*50000
		span := 2 * r / 111e3 // degrees of latitude, about twice the radius
		var a Geometry = Point{X: rng.Float64()*360 - 180, Y: lat}
		if i%2 == 1 {
			a = Rect(a.(Point).X, lat, a.(Point).X+span*rng.Float64(), math.Min(90, lat+span*rng.Float64()))
		}
		c := a.Envelope().Center()
		reach := math.Min(89.99, (math.Abs(lat)+span+90)/2) // the widest the pair's centre can sit
		lonSpan := span / math.Max(math.Cos(reach*deg2rad), 1e-4)
		bx := c.X + (rng.Float64()*2-1)*lonSpan
		bx -= 360 * math.Floor((bx+180)/360) // in [-180°, 180°): strdf rejects WGS84 longitudes past ±180°
		by := math.Max(-90, math.Min(90, c.Y+(rng.Float64()*2-1)*span))
		var b Geometry = Point{X: bx, Y: by}
		if i%4 >= 2 {
			// A footprint up to 15° tall, reaching poleward from (bx, by).
			h := math.Copysign(math.Min(15*rng.Float64(), 90-math.Abs(by)), by)
			b = Rect(bx, math.Min(by, by+h), bx+span*rng.Float64(), math.Max(by, by+h))
		}
		if GeodesicDistanceMeters(a, b) >= r {
			continue
		}
		checked++
		if i%4 >= 2 {
			checkedTall++
		}
		if !covers(a, b, r) {
			t.Fatalf("%v is %.1f m from %v, outside ExpandMeters(…, %.1f, %.2f) = %v or ExpandMeters(…, 90) = %v",
				b, GeodesicDistanceMeters(a, b), a, r, maxLat(b),
				ExpandMeters(a.Envelope(), r, maxLat(b)), ExpandMeters(a.Envelope(), r, 90))
		}
	}
	if checked < 2000 || checkedTall < 500 {
		t.Fatalf("only %d pairs (%d footprints) within reach: the sampler no longer tests the property", checked, checkedTall)
	}

	box := Rect(1, 2, 3, 4).Envelope()
	for _, m := range []float64{0, -5, math.NaN()} {
		if got := ExpandMeters(box, m, 90); got != box {
			t.Errorf("ExpandMeters(box, %v, 90) = %v, want the box unchanged", m, got)
		}
	}
	if !ExpandMeters(EmptyEnvelope(), 100, 90).IsEmpty() {
		t.Error("widening the empty envelope made it non-empty")
	}
}

func TestBufferMeters(t *testing.T) {
	site := Point{X: 22.0, Y: 37.5}
	zone := BufferMeters(site, 2000, 8) // the paper's "within 2km" radius
	if zone.IsEmpty() {
		t.Fatal("buffer empty")
	}
	near := Point{X: 22.015, Y: 37.5} // ~1.3 km east
	far := Point{X: 22.05, Y: 37.5}   // ~4.4 km east
	if !Intersects(zone, near) {
		t.Fatal("1.3km point should be inside 2km buffer")
	}
	if Intersects(zone, far) {
		t.Fatal("4.4km point should be outside 2km buffer")
	}
}

func TestAreaSquareMeters(t *testing.T) {
	// 0.01 x 0.01 degree box near lat 38: ~ (1.11km * cos38) * 1.11km.
	box := Rect(23.0, 38.0, 23.01, 38.01)
	a := AreaSquareMeters(box)
	want := 1.11e3 * math.Cos(38*math.Pi/180) * 1.11e3
	if a < want*0.9 || a > want*1.1 {
		t.Fatalf("area = %g, want ~%g", a, want)
	}
	if AreaSquareMeters(Polygon{}) != 0 {
		t.Fatal("empty area")
	}
}
