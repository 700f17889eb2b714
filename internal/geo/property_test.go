package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Property-based tests over the geometry kernel's core invariants, using
// rectangles and triangles generated from bounded random floats (huge or
// non-finite coordinates are out of the kernel's domain).

// boundedRect maps four arbitrary floats into a well-formed rectangle
// inside [-100, 100]^2 with side lengths in (0.1, 20].
func boundedRect(a, b, c, d float64) Polygon {
	norm := func(v float64, lo, hi float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0.5
		}
		v = math.Abs(v)
		v = v - math.Floor(v) // fractional part in [0,1)
		return lo + v*(hi-lo)
	}
	x := norm(a, -100, 100)
	y := norm(b, -100, 100)
	w := norm(c, 0.1, 20)
	h := norm(d, 0.1, 20)
	return Rect(x, y, x+w, y+h)
}

func TestPropIntersectionBounded(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		inter, err := IntersectPolygons(p, q)
		if err != nil {
			return false
		}
		var area float64
		for _, r := range inter {
			area += r.Area()
		}
		return area <= math.Min(p.Area(), q.Area())+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectionDifferencePartition(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		inter, err := IntersectPolygons(p, q)
		if err != nil {
			return false
		}
		diff, err := DifferencePolygons(p, q)
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range inter {
			sum += r.Area()
		}
		for _, r := range diff {
			sum += r.Area()
		}
		return math.Abs(sum-p.Area()) < 1e-3*(p.Area()+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionInclusionExclusion(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		inter, err := IntersectPolygons(p, q)
		if err != nil {
			return false
		}
		un, err := UnionPolygons(p, q)
		if err != nil {
			return false
		}
		var iA, uA float64
		for _, r := range inter {
			iA += r.Area()
		}
		for _, r := range un {
			uA += r.Area()
		}
		want := p.Area() + q.Area() - iA
		return math.Abs(uA-want) < 1e-3*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectsSymmetric(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		return Intersects(p, q) == Intersects(q, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEnvelopeIntersectionConsistency(t *testing.T) {
	// Exact intersection implies envelope intersection.
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		if Intersects(p, q) && !p.Envelope().Intersects(q.Envelope()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropBufferContainsOriginal(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		p := boundedRect(a, b, c, d)
		buffered := Buffer(p, 1, 4)
		return Within(p, buffered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropWKTRoundTripArea(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		p := boundedRect(a, b, c, d)
		back, err := ParseWKT(p.WKT())
		if err != nil {
			return false
		}
		bp, ok := back.(Polygon)
		if !ok {
			return false
		}
		return math.Abs(bp.Area()-p.Area()) < 1e-9*(p.Area()+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDistanceTriangleish(t *testing.T) {
	// Distance is symmetric and zero iff intersecting (for these shapes).
	f := func(a, b, c, d, e, g, h, i float64) bool {
		p := boundedRect(a, b, c, d)
		q := boundedRect(e, g, h, i)
		d1 := Distance(p, q)
		d2 := Distance(q, p)
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		if Intersects(p, q) != (d1 == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
