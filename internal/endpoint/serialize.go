package endpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/rdf"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

// Format identifies a negotiated result serialisation.
type Format int

// Supported result formats.
const (
	FormatJSON     Format = iota + 1 // SPARQL 1.1 Query Results JSON
	FormatCSV                        // SPARQL 1.1 Query Results CSV
	FormatTSV                        // SPARQL 1.1 Query Results TSV
	FormatGeoJSON                    // RFC 7946 FeatureCollection
	FormatNTriples                   // N-Triples (CONSTRUCT results)
)

// ContentType returns the media type written for the format.
func (f Format) ContentType() string {
	switch f {
	case FormatJSON:
		return "application/sparql-results+json"
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatTSV:
		return "text/tab-separated-values; charset=utf-8"
	case FormatGeoJSON:
		return "application/geo+json"
	case FormatNTriples:
		return "application/n-triples"
	}
	return "application/octet-stream"
}

// formatByName maps the ?format= query-parameter shorthand to formats.
var formatByName = map[string]Format{
	"json":     FormatJSON,
	"csv":      FormatCSV,
	"tsv":      FormatTSV,
	"geojson":  FormatGeoJSON,
	"ntriples": FormatNTriples,
	"nt":       FormatNTriples,
}

// formatByMedia maps Accept media types to formats.
var formatByMedia = map[string]Format{
	"application/sparql-results+json": FormatJSON,
	"application/json":                FormatJSON,
	"text/csv":                        FormatCSV,
	"text/tab-separated-values":       FormatTSV,
	"application/geo+json":            FormatGeoJSON,
	"application/vnd.geo+json":        FormatGeoJSON,
	"application/n-triples":           FormatNTriples,
	"text/plain":                      FormatNTriples,
	"*/*":                             FormatJSON,
	"application/*":                   FormatJSON,
	"text/*":                          FormatCSV,
}

// compatibleWith reports whether the format can represent results of
// the query form: a graph is not a bindings table, and a boolean has no
// geometry.
func (f Format) compatibleWith(form stsparql.QueryForm) bool {
	switch form {
	case stsparql.FormConstruct:
		return f == FormatNTriples || f == FormatGeoJSON
	case stsparql.FormAsk:
		return f == FormatJSON || f == FormatCSV || f == FormatTSV
	default:
		return f != FormatNTriples
	}
}

// defaultFormat is the form's serialisation when the client expresses
// no (satisfiable) preference.
func defaultFormat(form stsparql.QueryForm) Format {
	if form == stsparql.FormConstruct {
		return FormatNTriples
	}
	return FormatJSON
}

// negotiationError carries the HTTP rejection for a failed negotiation.
type negotiationError struct {
	status  int
	message string
}

// negotiateFormat picks the response format for a query form from the
// ?format= override and the Accept header (q-values honoured, unknown
// types skipped). An unknown ?format= value is a 400; a known one
// incompatible with the form falls back to the form's default (the
// parameter is this endpoint's own shorthand, documented to do so). For
// Accept, the best compatible type wins; a wildcard entry (*/*,
// application/*, text/*) permits the form default, and a header that
// names only concrete types the form cannot be served in is a 406.
func negotiateFormat(formatParam, accept string, form stsparql.QueryForm) (Format, *negotiationError) {
	if formatParam != "" {
		f, ok := formatByName[strings.ToLower(formatParam)]
		if !ok {
			return 0, &negotiationError{http.StatusBadRequest,
				fmt.Sprintf("unsupported format %q (want json, csv, tsv, geojson, or ntriples)", formatParam)}
		}
		if !f.compatibleWith(form) {
			return defaultFormat(form), nil
		}
		return f, nil
	}
	accept = strings.TrimSpace(accept)
	if accept == "" {
		return defaultFormat(form), nil
	}
	type choice struct {
		f    Format
		q    float64
		rank int // position in the header, to break q ties
	}
	var choices []choice
	sawWildcard := false
	for i, part := range strings.Split(accept, ",") {
		fields := strings.Split(part, ";")
		media := strings.ToLower(strings.TrimSpace(fields[0]))
		q := 1.0
		for _, param := range fields[1:] {
			param = strings.TrimSpace(param)
			if v, ok := strings.CutPrefix(param, "q="); ok {
				if parsed, err := strconv.ParseFloat(v, 64); err == nil {
					q = parsed
				}
			}
		}
		if q <= 0 {
			continue
		}
		switch media {
		case "*/*", "application/*", "text/*":
			sawWildcard = true
		}
		if f, ok := formatByMedia[media]; ok {
			choices = append(choices, choice{f: f, q: q, rank: i})
		}
	}
	sort.SliceStable(choices, func(i, j int) bool {
		if choices[i].q != choices[j].q {
			return choices[i].q > choices[j].q
		}
		return choices[i].rank < choices[j].rank
	})
	for _, c := range choices {
		if c.f.compatibleWith(form) {
			return c.f, nil
		}
	}
	if sawWildcard {
		return defaultFormat(form), nil
	}
	if len(choices) == 0 {
		return 0, &negotiationError{http.StatusNotAcceptable, "no supported result format in Accept"}
	}
	return 0, &negotiationError{http.StatusNotAcceptable,
		"none of the accepted types can represent this query form's result"}
}

// geomResolver decodes a spatial literal term to a WGS84 geometry. The
// server resolves through the store's ingest-time geometry cache when it
// can, so GeoJSON serialisation does not re-parse WKT per row.
type geomResolver func(rdf.Term) (strdf.SpatialValue, error)

// parseGeomDirect is the cache-less fallback resolver. A geometry whose
// CRS cannot be reprojected is an error, not a passthrough: GeoJSON
// positions are WGS84 by definition, so emitting untransformed
// coordinates would plot the feature off-planet. Callers render such
// rows with a null geometry instead.
func parseGeomDirect(t rdf.Term) (strdf.SpatialValue, error) {
	sv, err := strdf.ParseSpatial(t)
	if err != nil {
		return sv, err
	}
	w, err := sv.ToWGS84()
	if err != nil {
		return strdf.SpatialValue{}, err
	}
	return w, nil
}

// memoResolver wraps a resolver with a per-response memo, so N rows
// projecting the same computed geometry (e.g. a strdf:buffer result the
// store has never ingested) parse it once instead of once per row. The
// memo lives for one serialisation and is used from one goroutine, so
// it needs no locking and cannot grow beyond the response's distinct
// geometries.
func memoResolver(r geomResolver) geomResolver {
	ok := map[string]strdf.SpatialValue{}
	failed := map[string]error{}
	return func(t rdf.Term) (strdf.SpatialValue, error) {
		key := t.Datatype + "\x00" + t.Value
		if v, hit := ok[key]; hit {
			return v, nil
		}
		if err, hit := failed[key]; hit {
			return strdf.SpatialValue{}, err
		}
		v, err := r(t)
		if err != nil {
			failed[key] = err
			return v, err
		}
		ok[key] = v
		return v, nil
	}
}

// writeResult serialises an evaluation result in the format negotiated
// for the query form (the form decides the result shape: bindings
// table, boolean, or graph).
func writeResult(w io.Writer, res *stsparql.Result, form stsparql.QueryForm, f Format, geom geomResolver) error {
	if err := faults.Eval("endpoint/serialize"); err != nil {
		return err
	}
	geom = memoResolver(geom)
	switch form {
	case stsparql.FormConstruct:
		return writeConstruct(w, res.Triples, f, geom)
	case stsparql.FormAsk:
		return writeAsk(w, res, f)
	default:
		return writeSelect(w, res, f, geom)
	}
}

// --- SELECT -----------------------------------------------------------------

func writeSelect(w io.Writer, res *stsparql.Result, f Format, geom geomResolver) error {
	switch f {
	case FormatJSON:
		return writeSelectJSON(w, res)
	case FormatCSV:
		return writeSelectSV(w, res, ',')
	case FormatTSV:
		return writeSelectSV(w, res, '\t')
	case FormatGeoJSON:
		return writeSelectGeoJSON(w, res, geom)
	}
	return fmt.Errorf("endpoint: format %d cannot serialise bindings", f)
}

// termJSON renders one term per the SPARQL 1.1 Results JSON vocabulary.
func termJSON(t rdf.Term) map[string]any {
	switch t.Kind {
	case rdf.KindIRI:
		return map[string]any{"type": "uri", "value": t.Value}
	case rdf.KindBlank:
		return map[string]any{"type": "bnode", "value": t.Value}
	default:
		m := map[string]any{"type": "literal", "value": t.Value}
		if t.Lang != "" {
			m["xml:lang"] = t.Lang
		} else if t.Datatype != "" && t.Datatype != rdf.XSDString {
			m["datatype"] = t.Datatype
		}
		return m
	}
}

func writeSelectJSON(w io.Writer, res *stsparql.Result) error {
	vars := res.Vars
	if vars == nil {
		vars = []string{}
	}
	rows := make([]map[string]any, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		row := map[string]any{}
		for v, t := range b {
			row[v] = termJSON(t)
		}
		rows = append(rows, row)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"head":    map[string]any{"vars": vars},
		"results": map[string]any{"bindings": rows},
	})
}

// writeSelectSV writes the SPARQL 1.1 CSV (plain lexical values, quoted
// per RFC 4180) or TSV (N-Triples-encoded terms) serialisation, row by
// row so large result sets stream instead of doubling in memory.
func writeSelectSV(w io.Writer, res *stsparql.Result, sep byte) error {
	bw := bufio.NewWriter(w)
	for i, v := range res.Vars {
		if i > 0 {
			bw.WriteByte(sep)
		}
		if sep == '\t' {
			bw.WriteByte('?')
		}
		bw.WriteString(v)
	}
	bw.WriteString("\r\n")
	for _, b := range res.Bindings {
		for i, v := range res.Vars {
			if i > 0 {
				bw.WriteByte(sep)
			}
			t, bound := b[v]
			if !bound {
				continue
			}
			if sep == '\t' {
				bw.WriteString(t.String())
			} else {
				bw.WriteString(csvField(csvValue(t)))
			}
		}
		if _, err := bw.WriteString("\r\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvValue renders a term the way the SPARQL CSV spec does: lexical forms
// without quoting or datatypes, IRIs bare, blank nodes with "_:".
func csvValue(t rdf.Term) string {
	switch t.Kind {
	case rdf.KindBlank:
		return "_:" + t.Value
	default:
		return t.Value
	}
}

func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\r\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// writeSelectGeoJSON renders a bindings table as a FeatureCollection: per
// row, the first projected variable holding a parseable spatial literal
// becomes the feature geometry (reprojected to WGS84) and every other
// bound variable becomes a string property. Rows without a geometry get
// "geometry": null, so no solutions are silently dropped.
func writeSelectGeoJSON(w io.Writer, res *stsparql.Result, resolve geomResolver) error {
	features := make([]map[string]any, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		var geom map[string]any
		geomVar := ""
		for _, v := range res.Vars {
			t, bound := b[v]
			if !bound || !t.IsSpatial() {
				continue
			}
			sv, err := resolve(t)
			if err != nil {
				continue
			}
			enc, err := geoJSONGeometry(sv.Geom)
			if err != nil {
				continue
			}
			geom, geomVar = enc, v
			break
		}
		props := map[string]any{}
		for v, t := range b {
			if v == geomVar {
				continue
			}
			props[v] = csvValue(t)
		}
		features = append(features, map[string]any{
			"type":       "Feature",
			"geometry":   geom,
			"properties": props,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"type":     "FeatureCollection",
		"features": features,
	})
}

// --- ASK --------------------------------------------------------------------

func writeAsk(w io.Writer, res *stsparql.Result, f Format) error {
	switch f {
	case FormatCSV, FormatTSV:
		_, err := fmt.Fprintf(w, "%t\r\n", res.Bool)
		return err
	default:
		enc := json.NewEncoder(w)
		return enc.Encode(map[string]any{
			"head":    map[string]any{},
			"boolean": res.Bool,
		})
	}
}

// --- CONSTRUCT --------------------------------------------------------------

func writeConstruct(w io.Writer, triples []rdf.Triple, f Format, geom geomResolver) error {
	if f == FormatGeoJSON {
		return writeConstructGeoJSON(w, triples, geom)
	}
	return rdf.WriteNTriples(w, triples)
}

// writeConstructGeoJSON renders the triples whose object is a spatial
// literal as features (geometry = object, properties = subject and
// predicate); non-spatial triples are carried in the properties-only
// tail with null geometry.
func writeConstructGeoJSON(w io.Writer, triples []rdf.Triple, resolve geomResolver) error {
	features := make([]map[string]any, 0, len(triples))
	for _, t := range triples {
		var geom map[string]any
		if t.O.IsSpatial() {
			if sv, err := resolve(t.O); err == nil {
				if enc, err := geoJSONGeometry(sv.Geom); err == nil {
					geom = enc
				}
			}
		}
		props := map[string]any{
			"subject":   csvValue(t.S),
			"predicate": csvValue(t.P),
		}
		if geom == nil {
			props["object"] = csvValue(t.O)
		}
		features = append(features, map[string]any{
			"type":       "Feature",
			"geometry":   geom,
			"properties": props,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"type":     "FeatureCollection",
		"features": features,
	})
}
