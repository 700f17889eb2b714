package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// WKT serialisation -----------------------------------------------------------

// Serialisation appends into a single buffer (one allocation per
// geometry) instead of formatting every coordinate into its own interim
// string — WKT generation sits on the metadata and annotation hot paths
// of the ingestion chain.

// WKT implements Geometry for Point.
func (p Point) WKT() string {
	if p.IsEmpty() {
		return "POINT EMPTY"
	}
	buf := append(make([]byte, 0, 32), "POINT ("...)
	buf = appendCoord(buf, p)
	return string(append(buf, ')'))
}

// WKT implements Geometry for MultiPoint.
func (m MultiPoint) WKT() string {
	if m.IsEmpty() {
		return "MULTIPOINT EMPTY"
	}
	buf := append(make([]byte, 0, 16+24*len(m.Points)), "MULTIPOINT ("...)
	for i, p := range m.Points {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, '(')
		buf = appendCoord(buf, p)
		buf = append(buf, ')')
	}
	return string(append(buf, ')'))
}

// WKT implements Geometry for LineString.
func (l LineString) WKT() string {
	if l.IsEmpty() {
		return "LINESTRING EMPTY"
	}
	buf := append(make([]byte, 0, 16+24*len(l.Coords)), "LINESTRING "...)
	return string(appendCoords(buf, l.Coords))
}

// WKT implements Geometry for MultiLineString.
func (m MultiLineString) WKT() string {
	if m.IsEmpty() {
		return "MULTILINESTRING EMPTY"
	}
	buf := append(make([]byte, 0, 64), "MULTILINESTRING ("...)
	for i, l := range m.Lines {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendCoords(buf, l.Coords)
	}
	return string(append(buf, ')'))
}

// WKT implements Geometry for Polygon.
func (p Polygon) WKT() string {
	if p.IsEmpty() {
		return "POLYGON EMPTY"
	}
	buf := append(make([]byte, 0, 24+24*len(p.Exterior.Coords)), "POLYGON "...)
	return string(appendPolyBody(buf, p))
}

// WKT implements Geometry for MultiPolygon.
func (m MultiPolygon) WKT() string {
	if m.IsEmpty() {
		return "MULTIPOLYGON EMPTY"
	}
	buf := append(make([]byte, 0, 64), "MULTIPOLYGON ("...)
	for i, p := range m.Polygons {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendPolyBody(buf, p)
	}
	return string(append(buf, ')'))
}

// WKT implements Geometry for GeometryCollection.
func (g GeometryCollection) WKT() string {
	if g.IsEmpty() {
		return "GEOMETRYCOLLECTION EMPTY"
	}
	parts := make([]string, len(g.Geometries))
	for i, m := range g.Geometries {
		parts[i] = m.WKT()
	}
	return "GEOMETRYCOLLECTION (" + strings.Join(parts, ", ") + ")"
}

// AppendWKT appends g's WKT text to buf — the allocation-free form of
// Geometry.WKT for callers that embed the text in a larger literal.
func AppendWKT(buf []byte, g Geometry) []byte {
	switch t := g.(type) {
	case Point:
		if t.IsEmpty() {
			return append(buf, "POINT EMPTY"...)
		}
		buf = append(buf, "POINT ("...)
		buf = appendCoord(buf, t)
		return append(buf, ')')
	case LineString:
		if t.IsEmpty() {
			return append(buf, "LINESTRING EMPTY"...)
		}
		buf = append(buf, "LINESTRING "...)
		return appendCoords(buf, t.Coords)
	case Polygon:
		if t.IsEmpty() {
			return append(buf, "POLYGON EMPTY"...)
		}
		buf = append(buf, "POLYGON "...)
		return appendPolyBody(buf, t)
	default:
		return append(buf, g.WKT()...)
	}
}

func appendCoord(buf []byte, p Point) []byte {
	buf = strconv.AppendFloat(buf, p.X, 'g', -1, 64)
	buf = append(buf, ' ')
	return strconv.AppendFloat(buf, p.Y, 'g', -1, 64)
}

func appendCoords(buf []byte, cs []Point) []byte {
	buf = append(buf, '(')
	for i, c := range cs {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendCoord(buf, c)
	}
	return append(buf, ')')
}

func appendPolyBody(buf []byte, p Polygon) []byte {
	buf = append(buf, '(')
	buf = appendCoords(buf, p.Exterior.Coords)
	for _, h := range p.Holes {
		buf = append(buf, ", "...)
		buf = appendCoords(buf, h.Coords)
	}
	return append(buf, ')')
}

// WKT parsing -----------------------------------------------------------------

// ParseWKT parses an OGC Well-Known Text geometry. It accepts the 2D subset
// of the grammar (the TELEIOS demo uses only 2D data), case-insensitive
// keywords, and EMPTY geometries.
func ParseWKT(s string) (Geometry, error) {
	p := &wktParser{src: s}
	g, err := p.parseGeometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("geo: trailing input at offset %d in WKT %q", p.pos, truncate(s))
	}
	return g, nil
}

type wktParser struct {
	src string
	pos int
}

func truncate(s string) string {
	if len(s) > 64 {
		return s[:61] + "..."
	}
	return s
}

func (p *wktParser) errf(format string, args ...any) error {
	return fmt.Errorf("geo: %s at offset %d in WKT %q", fmt.Sprintf(format, args...), p.pos, truncate(p.src))
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *wktParser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToUpper(p.src[start:p.pos])
}

func (p *wktParser) peekWord() string {
	save := p.pos
	w := p.word()
	p.pos = save
	return w
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *wktParser) tryByte(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, p.errf("expected number")
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, p.errf("bad number %q", p.src[start:p.pos])
	}
	return f, nil
}

func (p *wktParser) parseGeometry() (Geometry, error) {
	switch tag := p.word(); tag {
	case "POINT":
		if p.peekWord() == "EMPTY" {
			p.word()
			return Point{X: math.NaN(), Y: math.NaN()}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return pt, nil
	case "MULTIPOINT":
		if p.peekWord() == "EMPTY" {
			p.word()
			return MultiPoint{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var pts []Point
		for {
			// Both "MULTIPOINT ((1 2), (3 4))" and "MULTIPOINT (1 2, 3 4)"
			// are legal WKT.
			wrapped := p.tryByte('(')
			pt, err := p.coord()
			if err != nil {
				return nil, err
			}
			if wrapped {
				if err := p.expect(')'); err != nil {
					return nil, err
				}
			}
			pts = append(pts, pt)
			if !p.tryByte(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiPoint{Points: pts}, nil
	case "LINESTRING":
		if p.peekWord() == "EMPTY" {
			p.word()
			return LineString{}, nil
		}
		cs, err := p.coordList()
		if err != nil {
			return nil, err
		}
		return LineString{Coords: cs}, nil
	case "MULTILINESTRING":
		if p.peekWord() == "EMPTY" {
			p.word()
			return MultiLineString{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var lines []LineString
		for {
			cs, err := p.coordList()
			if err != nil {
				return nil, err
			}
			lines = append(lines, LineString{Coords: cs})
			if !p.tryByte(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiLineString{Lines: lines}, nil
	case "POLYGON":
		if p.peekWord() == "EMPTY" {
			p.word()
			return Polygon{}, nil
		}
		return p.polygonBody()
	case "MULTIPOLYGON":
		if p.peekWord() == "EMPTY" {
			p.word()
			return MultiPolygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var polys []Polygon
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			polys = append(polys, poly)
			if !p.tryByte(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return MultiPolygon{Polygons: polys}, nil
	case "GEOMETRYCOLLECTION":
		if p.peekWord() == "EMPTY" {
			p.word()
			return GeometryCollection{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var geoms []Geometry
		for {
			g, err := p.parseGeometry()
			if err != nil {
				return nil, err
			}
			geoms = append(geoms, g)
			if !p.tryByte(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return GeometryCollection{Geometries: geoms}, nil
	case "":
		return nil, p.errf("empty WKT input")
	default:
		return nil, p.errf("unknown geometry tag %q", tag)
	}
}

func (p *wktParser) coord() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{X: x, Y: y}, nil
}

func (p *wktParser) coordList() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	// Rectangle footprints (5 coords) dominate the catalogue: start with
	// capacity for them so the common ring parses in one allocation.
	cs := make([]Point, 0, 8)
	for {
		c, err := p.coord()
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
		if !p.tryByte(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return cs, nil
}

func (p *wktParser) polygonBody() (Polygon, error) {
	if err := p.expect('('); err != nil {
		return Polygon{}, err
	}
	var exterior Ring
	var holes []Ring
	first := true
	for {
		cs, err := p.coordList()
		if err != nil {
			return Polygon{}, err
		}
		if len(cs) < 4 {
			return Polygon{}, p.errf("polygon ring needs at least 4 coordinates, got %d", len(cs))
		}
		if !cs[0].Equal(cs[len(cs)-1]) {
			return Polygon{}, p.errf("polygon ring is not closed")
		}
		if first {
			exterior = Ring{Coords: cs}
			first = false
		} else {
			holes = append(holes, Ring{Coords: cs})
		}
		if !p.tryByte(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return Polygon{}, err
	}
	return NewPolygon(exterior, holes...), nil
}
