// Package strdf implements the stRDF data model of the paper (Koubarakis &
// Kyzirakos, ESWC 2010): RDF extended with spatial literals (OGC WKT/GML
// with an optional SRID) and valid-time period literals. It provides the
// parsing, serialisation and computation over those literals that Strabon
// (internal/strabon) and stSPARQL (internal/stsparql) build on.
package strdf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/rdf"
)

// Namespace IRIs of the stRDF vocabulary.
const (
	// NS is the stRDF ontology namespace.
	NS = "http://strdf.di.uoa.gr/ontology#"
	// PeriodDatatype types valid-time period literals.
	PeriodDatatype = NS + "period"
)

// SpatialValue is a decoded spatial literal: geometry plus CRS.
type SpatialValue struct {
	Geom geo.Geometry
	SRID geo.SRID
}

// parseCache interns decoded spatial literals process-wide: the same
// literal text re-ingested by any store (re-processed products, fresh
// stores over shared linked data) decodes once. Geometries are treated
// as immutable everywhere, so sharing the decoded value is safe. The
// cache is dropped wholesale when it fills — cheap, and a full cache
// means the workload's literal set fits comfortably anyway. It is keyed
// on datatype and text, since the datatype decides how the text parses.
var parseCache struct {
	mu sync.RWMutex
	m  map[[2]string]SpatialValue
}

const parseCacheCap = 8192

// ParseSpatial decodes an stRDF/GeoSPARQL spatial literal. The stRDF WKT
// form is "<wkt>[;<srid>]"; the GeoSPARQL form uses a leading CRS IRI
// "<http://www.opengis.net/def/crs/EPSG/0/4326> POINT(...)". Both are
// accepted; the default CRS is WGS84.
func ParseSpatial(t rdf.Term) (SpatialValue, error) {
	if !t.IsSpatial() {
		return SpatialValue{}, fmt.Errorf("strdf: term %s is not a spatial literal", t)
	}
	key := [2]string{t.Datatype, t.Value}
	parseCache.mu.RLock()
	v, ok := parseCache.m[key]
	parseCache.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := parseSpatialUncached(t)
	if err != nil {
		return SpatialValue{}, err
	}
	parseCache.mu.Lock()
	if parseCache.m == nil || len(parseCache.m) >= parseCacheCap {
		parseCache.m = make(map[[2]string]SpatialValue, 256)
	}
	parseCache.m[key] = v
	parseCache.mu.Unlock()
	return v, nil
}

// ParseWGS84 is ParseSpatial followed by a reprojection to WGS84, the
// CRS every stored and queried geometry is compared in; a value whose
// reprojection fails keeps its own CRS.
func ParseWGS84(t rdf.Term) (SpatialValue, error) {
	v, err := ParseSpatial(t)
	if err != nil {
		return SpatialValue{}, err
	}
	if w, err := v.ToWGS84(); err == nil {
		v = w
	}
	return v, nil
}

func parseSpatialUncached(t rdf.Term) (SpatialValue, error) {
	if t.Datatype == rdf.StRDFGML {
		return SpatialValue{}, fmt.Errorf("strdf: GML literal decoding is not supported; use WKT")
	}
	lex := strings.TrimSpace(t.Value)
	srid := geo.SRIDWGS84
	// GeoSPARQL CRS prefix.
	if strings.HasPrefix(lex, "<") {
		end := strings.IndexByte(lex, '>')
		if end < 0 {
			return SpatialValue{}, fmt.Errorf("strdf: unterminated CRS IRI in %q", lex)
		}
		iri := lex[1:end]
		lex = strings.TrimSpace(lex[end+1:])
		if i := strings.LastIndexByte(iri, '/'); i >= 0 {
			if n, err := strconv.Atoi(iri[i+1:]); err == nil {
				srid = geo.SRID(n)
			}
		}
	}
	// stRDF ";srid" suffix.
	if i := strings.LastIndexByte(lex, ';'); i >= 0 {
		tail := strings.TrimSpace(lex[i+1:])
		if n, err := strconv.Atoi(tail); err == nil {
			srid = geo.SRID(n)
			lex = strings.TrimSpace(lex[:i])
		}
	}
	g, err := geo.ParseWKT(lex)
	if err != nil {
		return SpatialValue{}, fmt.Errorf("strdf: %w", err)
	}
	return SpatialValue{Geom: g, SRID: srid}, nil
}

// Literal encodes a geometry as an stRDF WKT literal term. The WKT text
// and the ";<srid>" suffix build in one buffer (one string allocation —
// this runs once per catalogue geometry).
func Literal(g geo.Geometry, srid geo.SRID) rdf.Term {
	if srid == 0 {
		srid = geo.SRIDWGS84
	}
	buf := make([]byte, 0, 192)
	buf = geo.AppendWKT(buf, g)
	buf = append(buf, ';')
	buf = strconv.AppendInt(buf, int64(srid), 10)
	return rdf.TypedLiteral(string(buf), rdf.StRDFWKT)
}

// ToWGS84 reprojects a spatial value to WGS84.
func (v SpatialValue) ToWGS84() (SpatialValue, error) {
	if v.SRID == geo.SRIDWGS84 || v.SRID == geo.SRIDCRS84 {
		return v, nil
	}
	g, err := geo.Transform(v.Geom, v.SRID, geo.SRIDWGS84)
	if err != nil {
		return SpatialValue{}, err
	}
	return SpatialValue{Geom: g, SRID: geo.SRIDWGS84}, nil
}

// Period is a half-open valid-time interval [Start, End). A zero End means
// an open-ended period ("until changed", stRDF's NOW).
type Period struct {
	Start, End time.Time
}

// ParsePeriod decodes a period literal "[start, end)" (or "[start, NOW)").
func ParsePeriod(t rdf.Term) (Period, error) {
	if t.Kind != rdf.KindLiteral || t.Datatype != PeriodDatatype {
		return Period{}, fmt.Errorf("strdf: term %s is not a period literal", t)
	}
	lex := strings.TrimSpace(t.Value)
	if len(lex) < 2 || lex[0] != '[' || (lex[len(lex)-1] != ')' && lex[len(lex)-1] != ']') {
		return Period{}, fmt.Errorf("strdf: malformed period %q", lex)
	}
	body := lex[1 : len(lex)-1]
	parts := strings.SplitN(body, ",", 2)
	if len(parts) != 2 {
		return Period{}, fmt.Errorf("strdf: malformed period %q", lex)
	}
	start, err := time.Parse(time.RFC3339, strings.TrimSpace(parts[0]))
	if err != nil {
		return Period{}, fmt.Errorf("strdf: bad period start: %w", err)
	}
	p := Period{Start: start.UTC()}
	endStr := strings.TrimSpace(parts[1])
	if !strings.EqualFold(endStr, "NOW") && endStr != "" {
		end, err := time.Parse(time.RFC3339, endStr)
		if err != nil {
			return Period{}, fmt.Errorf("strdf: bad period end: %w", err)
		}
		p.End = end.UTC()
	}
	if !p.End.IsZero() && !p.Start.Before(p.End) {
		return Period{}, fmt.Errorf("strdf: period start %v not before end %v", p.Start, p.End)
	}
	return p, nil
}

// PeriodLiteral encodes a period as an stRDF period literal term.
func PeriodLiteral(p Period) rdf.Term {
	end := "NOW"
	if !p.End.IsZero() {
		end = p.End.UTC().Format(time.RFC3339)
	}
	return rdf.TypedLiteral(
		fmt.Sprintf("[%s, %s)", p.Start.UTC().Format(time.RFC3339), end),
		PeriodDatatype,
	)
}

// Contains reports whether instant t falls inside the period.
func (p Period) Contains(t time.Time) bool {
	if t.Before(p.Start) {
		return false
	}
	return p.End.IsZero() || t.Before(p.End)
}

// Overlaps reports whether two periods share any instant.
func (p Period) Overlaps(q Period) bool {
	startsBeforeQEnds := q.End.IsZero() || p.Start.Before(q.End)
	qStartsBeforePEnds := p.End.IsZero() || q.Start.Before(p.End)
	return startsBeforeQEnds && qStartsBeforePEnds
}

// During reports whether p lies entirely within q.
func (p Period) During(q Period) bool {
	if p.Start.Before(q.Start) {
		return false
	}
	if q.End.IsZero() {
		return true
	}
	if p.End.IsZero() {
		return false
	}
	return !p.End.After(q.End)
}

// Before reports whether p ends at or before q starts.
func (p Period) Before(q Period) bool {
	return !p.End.IsZero() && !p.End.After(q.Start)
}
