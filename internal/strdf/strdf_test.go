package strdf

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rdf"
)

func TestParseSpatialStRDF(t *testing.T) {
	v, err := ParseSpatial(rdf.WKTLiteral("POINT (23.5 37.9)", 4326))
	if err != nil {
		t.Fatal(err)
	}
	if v.SRID != geo.SRIDWGS84 {
		t.Fatalf("srid = %d", v.SRID)
	}
	p, ok := v.Geom.(geo.Point)
	if !ok || p.X != 23.5 {
		t.Fatalf("geom = %v", v.Geom)
	}
	// No SRID suffix defaults to WGS84.
	v2, err := ParseSpatial(rdf.WKTLiteral("POINT (1 2)", 0))
	if err != nil || v2.SRID != geo.SRIDWGS84 {
		t.Fatalf("default srid: %v %v", v2.SRID, err)
	}
	// Greek Grid SRID.
	v3, err := ParseSpatial(rdf.WKTLiteral("POINT (500000 4200000)", 2100))
	if err != nil || v3.SRID != geo.SRIDGreekGrid {
		t.Fatalf("greek grid: %v %v", v3.SRID, err)
	}
}

func TestParseSpatialGeoSPARQL(t *testing.T) {
	lit := rdf.TypedLiteral("<http://www.opengis.net/def/crs/EPSG/0/3857> POINT (100 200)", rdf.GeoSPARQLWKT)
	v, err := ParseSpatial(lit)
	if err != nil {
		t.Fatal(err)
	}
	if v.SRID != geo.SRIDWebMercator {
		t.Fatalf("srid = %d", v.SRID)
	}
}

func TestParseSpatialErrors(t *testing.T) {
	if _, err := ParseSpatial(rdf.Literal("POINT (1 2)")); err == nil {
		t.Fatal("plain literal is not spatial")
	}
	if _, err := ParseSpatial(rdf.WKTLiteral("NOT WKT", 4326)); err == nil {
		t.Fatal("bad WKT")
	}
	if _, err := ParseSpatial(rdf.TypedLiteral("<gml:Point/>", rdf.StRDFGML)); err == nil {
		t.Fatal("GML decode unsupported")
	}
	if _, err := ParseSpatial(rdf.TypedLiteral("<unterminated POINT(1 2)", rdf.GeoSPARQLWKT)); err == nil {
		t.Fatal("unterminated CRS IRI")
	}
}

// TestParseCacheKeysOnDatatype: a GML literal whose text equals an
// already-parsed WKT literal's text still fails as GML, rather than
// reading back the WKT literal's cached geometry.
func TestParseCacheKeysOnDatatype(t *testing.T) {
	const text = "POINT (3 4)"
	if _, err := ParseSpatial(rdf.TypedLiteral(text, rdf.StRDFWKT)); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpatial(rdf.TypedLiteral(text, rdf.StRDFGML)); err == nil {
		t.Fatal("a GML literal parsed from the WKT literal's cache entry")
	}
}

func TestLiteralRoundTrip(t *testing.T) {
	g := geo.Rect(21, 36, 27, 40)
	lit := Literal(g, geo.SRIDWGS84)
	v, err := ParseSpatial(lit)
	if err != nil {
		t.Fatal(err)
	}
	if !geo.Equals(v.Geom, g) {
		t.Fatal("geometry round trip")
	}
	if v.SRID != geo.SRIDWGS84 {
		t.Fatal("srid round trip")
	}
	// Zero SRID normalises to 4326.
	lit2 := Literal(g, 0)
	v2, _ := ParseSpatial(lit2)
	if v2.SRID != geo.SRIDWGS84 {
		t.Fatal("zero srid")
	}
}

func TestToWGS84(t *testing.T) {
	// A point in Web Mercator projected back.
	merc, err := geo.Transform(geo.Point{X: 23.7, Y: 37.9}, geo.SRIDWGS84, geo.SRIDWebMercator)
	if err != nil {
		t.Fatal(err)
	}
	v := SpatialValue{Geom: merc, SRID: geo.SRIDWebMercator}
	w, err := v.ToWGS84()
	if err != nil {
		t.Fatal(err)
	}
	p := w.Geom.(geo.Point)
	if p.X < 23.69 || p.X > 23.71 {
		t.Fatalf("reprojected = %v", p)
	}
	// Already WGS84: identity.
	same := SpatialValue{Geom: geo.Point{X: 1, Y: 2}, SRID: geo.SRIDWGS84}
	w2, err := same.ToWGS84()
	if err != nil || w2.Geom.(geo.Point) != (geo.Point{X: 1, Y: 2}) {
		t.Fatal("identity")
	}
}

// TestWGS84Range: a WGS84 literal with a coordinate outside longitude
// [-180°, 180°] or latitude [-90°, 90°] does not parse, nor does one
// whose reprojection to WGS84 lands there; the bounds themselves do.
func TestWGS84Range(t *testing.T) {
	cases := []struct {
		name string
		lit  rdf.Term
		ok   bool
	}{
		{"inside", rdf.WKTLiteral("POINT (23.7 37.9)", 4326), true},
		{"on the bounds", rdf.WKTLiteral("LINESTRING (-180 -90, 180 90)", 4326), true},
		{"empty", rdf.WKTLiteral("POINT EMPTY", 4326), true},
		{"east of 180", rdf.WKTLiteral("POINT (185 10)", 4326), false},
		{"west of -180", rdf.WKTLiteral("POINT (-180.01 10)", 0), false},
		{"north of 90", rdf.WKTLiteral("POINT (10 90.5)", 4326), false},
		{"polygon vertex past 180", rdf.WKTLiteral("POLYGON ((179 9, 181 9, 181 11, 179 11, 179 9))", 4326), false},
		{"CRS84", rdf.TypedLiteral("<http://www.opengis.net/def/crs/OGC/1.3/CRS84> POINT (185 10)", rdf.GeoSPARQLWKT), false},
		{"Web Mercator inside", rdf.WKTLiteral("POINT (2638000 4565000)", 3857), true},
		{"Web Mercator past 180", rdf.WKTLiteral("POINT (25000000 1000000)", 3857), false},
	}
	for _, c := range cases {
		v, err := ParseWGS84(c.lit)
		if (err == nil) != c.ok {
			t.Errorf("%s: ParseWGS84(%s) = %v, %v; want ok=%v", c.name, c.lit.Value, v, err, c.ok)
		}
		if !c.ok && v.Geom != nil {
			t.Errorf("%s: a rejected literal returned geometry %v", c.name, v.Geom)
		}
	}
}

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	tm, err := time.Parse(time.RFC3339, s)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestPeriodRoundTrip(t *testing.T) {
	p := Period{
		Start: mustTime(t, "2007-08-25T12:00:00Z"),
		End:   mustTime(t, "2007-08-25T14:00:00Z"),
	}
	lit := PeriodLiteral(p)
	got, err := ParsePeriod(lit)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(p.Start) || !got.End.Equal(p.End) {
		t.Fatalf("round trip = %+v", got)
	}
	// Open-ended period.
	open := Period{Start: p.Start}
	gotOpen, err := ParsePeriod(PeriodLiteral(open))
	if err != nil {
		t.Fatal(err)
	}
	if !gotOpen.End.IsZero() {
		t.Fatal("open end lost")
	}
}

func TestParsePeriodErrors(t *testing.T) {
	for _, lex := range []string{
		"2007-08-25T12:00:00Z",                         // no brackets
		"[2007-08-25T12:00:00Z)",                       // one endpoint
		"[nonsense, 2007-08-25T14:00:00Z)",             // bad start
		"[2007-08-25T12:00:00Z, nonsense)",             // bad end
		"[2007-08-25T14:00:00Z, 2007-08-25T12:00:00Z)", // reversed
		"[2007-08-25T12:00:00Z, 2007-08-25T12:00:00Z)", // empty
	} {
		if _, err := ParsePeriod(rdf.TypedLiteral(lex, PeriodDatatype)); err == nil {
			t.Errorf("ParsePeriod(%q) succeeded", lex)
		}
	}
	if _, err := ParsePeriod(rdf.Literal("[a, b)")); err == nil {
		t.Fatal("wrong datatype")
	}
}

func TestPeriodRelations(t *testing.T) {
	mk := func(a, b string) Period {
		p := Period{Start: mustTime(t, a)}
		if b != "" {
			p.End = mustTime(t, b)
		}
		return p
	}
	morning := mk("2007-08-25T06:00:00Z", "2007-08-25T12:00:00Z")
	noonish := mk("2007-08-25T11:00:00Z", "2007-08-25T13:00:00Z")
	evening := mk("2007-08-25T18:00:00Z", "2007-08-25T22:00:00Z")
	allDay := mk("2007-08-25T00:00:00Z", "2007-08-26T00:00:00Z")
	open := mk("2007-08-25T10:00:00Z", "")

	if !morning.Overlaps(noonish) || !noonish.Overlaps(morning) {
		t.Fatal("overlapping periods")
	}
	if morning.Overlaps(evening) {
		t.Fatal("disjoint periods")
	}
	if !noonish.During(allDay) {
		t.Fatal("during")
	}
	if allDay.During(noonish) {
		t.Fatal("not during")
	}
	if !morning.Before(evening) {
		t.Fatal("before")
	}
	if evening.Before(morning) {
		t.Fatal("not before")
	}
	// Open periods.
	if !open.Overlaps(evening) {
		t.Fatal("open overlaps future")
	}
	if !evening.During(open) {
		t.Fatal("bounded during open")
	}
	if open.During(evening) {
		t.Fatal("open not during bounded")
	}
	if open.Before(evening) {
		t.Fatal("open never before")
	}
	// Contains instant.
	if !noonish.Contains(mustTime(t, "2007-08-25T12:30:00Z")) {
		t.Fatal("contains")
	}
	if noonish.Contains(mustTime(t, "2007-08-25T13:00:00Z")) {
		t.Fatal("half-open end")
	}
	if !open.Contains(mustTime(t, "2030-01-01T00:00:00Z")) {
		t.Fatal("open contains future")
	}
}
