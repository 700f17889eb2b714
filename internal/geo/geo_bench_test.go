package geo

import (
	"math"
	"testing"
)

func benchCoastline(n int) Polygon {
	cs := make([]Point, 0, n+1)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		r := 10 + 2*math.Sin(5*th)
		cs = append(cs, Point{r * math.Cos(th), r * math.Sin(th)})
	}
	cs = append(cs, cs[0])
	return NewPolygon(Ring{Coords: cs})
}

func BenchmarkPointInPolygon(b *testing.B) {
	poly := benchCoastline(360)
	for i := 0; i < b.N; i++ {
		if pointPolygonLocation(Point{float64(i%7) - 3, float64(i%5) - 2}, poly) == 0 {
			b.Fatal("unexpected boundary hit")
		}
	}
}

func BenchmarkIntersectsPolyPoly(b *testing.B) {
	coast := benchCoastline(360)
	probe := Rect(8, -1, 12, 1) // straddles the boundary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Intersects(coast, probe) {
			b.Fatal("should intersect")
		}
	}
}

func BenchmarkClipIntersection(b *testing.B) {
	coast := benchCoastline(360)
	probe := Rect(8, -1, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := IntersectPolygons(probe, coast)
		if err != nil || len(out) == 0 {
			b.Fatalf("clip: %v (%d pieces)", err, len(out))
		}
	}
}

func BenchmarkWKTParsePolygon(b *testing.B) {
	wkt := benchCoastline(360).WKT()
	b.SetBytes(int64(len(wkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseWKT(wkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPoint(b *testing.B) {
	p := Point{X: 23.7, Y: 37.9}
	for i := 0; i < b.N; i++ {
		if Buffer(p, 0.02, 8).IsEmpty() {
			b.Fatal("empty buffer")
		}
	}
}

func BenchmarkGeodesicDistance(b *testing.B) {
	coast := benchCoastline(360)
	pt := Point{X: 25, Y: 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if GeodesicDistanceMeters(coast, pt) <= 0 {
			b.Fatal("distance")
		}
	}
}
