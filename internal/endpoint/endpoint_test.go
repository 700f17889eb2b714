package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

const (
	exNS  = "http://example.org/"
	noaNS = "http://teleios.di.uoa.gr/noa#"
)

// fixture builds a store with towns carrying point geometries and
// populations, plus one polygon region.
func fixture() (*strabon.Store, *stsparql.Engine) {
	st := strabon.NewStore()
	add := func(name string, pop int64, wkt string) {
		iri := rdf.IRI(exNS + name)
		st.Add(rdf.NewTriple(iri, rdf.IRI(rdf.RDFType), rdf.IRI(exNS+"Town")))
		st.Add(rdf.NewTriple(iri, rdf.IRI(rdf.RDFSLabel), rdf.Literal(name)))
		st.Add(rdf.NewTriple(iri, rdf.IRI(noaNS+"population"), rdf.IntegerLiteral(pop)))
		st.Add(rdf.NewTriple(iri, rdf.IRI(noaNS+"hasGeometry"), rdf.WKTLiteral(wkt, 4326)))
	}
	add("athens", 3000000, "POINT (23.72 37.98)")
	add("sparta", 35000, "POINT (22.43 37.07)")
	add("thessaloniki", 1000000, "POINT (22.94 40.64)")
	region := rdf.IRI(exNS + "peloponnese")
	st.Add(rdf.NewTriple(region, rdf.IRI(rdf.RDFType), rdf.IRI(exNS+"Region")))
	st.Add(rdf.NewTriple(region, rdf.IRI(noaNS+"hasGeometry"),
		rdf.WKTLiteral("POLYGON ((21 36.4, 23.5 36.4, 23.5 38.4, 21 38.4, 21 36.4))", 4326)))
	return st, stsparql.New(st)
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	st, eng := fixture()
	cfg := Config{Engine: eng, Store: st}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

const townQuery = `
	PREFIX noa: <http://teleios.di.uoa.gr/noa#>
	SELECT ?name ?pop ?geom WHERE {
		?t a <http://example.org/Town> .
		?t rdfs:label ?name .
		?t noa:population ?pop .
		?t noa:hasGeometry ?geom .
	} ORDER BY ?name`

func get(t *testing.T, base, query string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

type sparqlJSON struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Datatype string `json:"datatype"`
			Lang     string `json:"xml:lang"`
		} `json:"bindings"`
	} `json:"results"`
	Boolean *bool `json:"boolean"`
}

func TestSelectJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out sparqlJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if want := []string{"name", "pop", "geom"}; fmt.Sprint(out.Head.Vars) != fmt.Sprint(want) {
		t.Fatalf("vars = %v, want %v", out.Head.Vars, want)
	}
	if len(out.Results.Bindings) != 3 {
		t.Fatalf("got %d rows, want 3", len(out.Results.Bindings))
	}
	first := out.Results.Bindings[0]
	if first["name"].Value != "athens" || first["name"].Type != "literal" {
		t.Fatalf("first row name = %+v", first["name"])
	}
	if first["pop"].Datatype != rdf.XSDInteger {
		t.Fatalf("pop datatype = %q", first["pop"].Datatype)
	}
	if first["geom"].Datatype != rdf.StRDFWKT {
		t.Fatalf("geom datatype = %q", first["geom"].Datatype)
	}
}

func TestSpatialQueryGeoJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Towns inside the Peloponnese polygon: only sparta.
	query := `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT ?name ?geom WHERE {
			?t a <http://example.org/Town> .
			?t rdfs:label ?name .
			?t noa:hasGeometry ?geom .
			FILTER(strdf:within(?geom, "POLYGON ((21 36.4, 23.5 36.4, 23.5 38.4, 21 38.4, 21 36.4))"^^strdf:WKT))
		}`
	resp, body := get(t, ts.URL, query, http.Header{"Accept": []string{"application/geo+json"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Geometry *struct {
				Type        string     `json:"type"`
				Coordinates [2]float64 `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]string `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatalf("invalid GeoJSON: %v\n%s", err, body)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) != 1 {
		t.Fatalf("got %s with %d features, want FeatureCollection with 1", fc.Type, len(fc.Features))
	}
	f := fc.Features[0]
	if f.Geometry == nil || f.Geometry.Type != "Point" {
		t.Fatalf("geometry = %+v", f.Geometry)
	}
	if f.Geometry.Coordinates != [2]float64{22.43, 37.07} {
		t.Fatalf("coordinates = %v", f.Geometry.Coordinates)
	}
	if f.Properties["name"] != "sparta" {
		t.Fatalf("properties = %v", f.Properties)
	}
}

func TestContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		accept, format string
		wantCT         string
	}{
		{"", "", "application/sparql-results+json"},
		{"application/json", "", "application/sparql-results+json"},
		{"text/csv", "", "text/csv; charset=utf-8"},
		{"text/tab-separated-values", "", "text/tab-separated-values; charset=utf-8"},
		{"application/geo+json", "", "application/geo+json"},
		{"text/csv;q=0.5, application/sparql-results+json", "", "application/sparql-results+json"},
		{"application/xml;q=0.9, text/csv;q=0.8", "", "text/csv; charset=utf-8"},
		// format= overrides Accept.
		{"text/csv", "geojson", "application/geo+json"},
		{"", "tsv", "text/tab-separated-values; charset=utf-8"},
	}
	for _, c := range cases {
		u := ts.URL + "/sparql?query=" + url.QueryEscape(townQuery)
		if c.format != "" {
			u += "&format=" + c.format
		}
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Accept %q format %q: status %d", c.accept, c.format, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != c.wantCT {
			t.Errorf("Accept %q format %q: Content-Type = %q, want %q", c.accept, c.format, ct, c.wantCT)
		}
	}
}

func TestCSVAndTSVBodies(t *testing.T) {
	_, ts := newTestServer(t, nil)
	query := `SELECT ?name WHERE { ?t rdfs:label ?name } ORDER BY ?name`
	_, csvBody := get(t, ts.URL, query, http.Header{"Accept": []string{"text/csv"}})
	wantCSV := "name\r\nathens\r\nsparta\r\nthessaloniki\r\n"
	if string(csvBody) != wantCSV {
		t.Errorf("CSV body = %q, want %q", csvBody, wantCSV)
	}
	_, tsvBody := get(t, ts.URL, query, http.Header{"Accept": []string{"text/tab-separated-values"}})
	wantTSV := "?name\r\n\"athens\"\r\n\"sparta\"\r\n\"thessaloniki\"\r\n"
	if string(tsvBody) != wantTSV {
		t.Errorf("TSV body = %q, want %q", tsvBody, wantTSV)
	}
}

func TestAskAndConstruct(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL, `ASK WHERE { <http://example.org/athens> a <http://example.org/Town> }`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ASK status = %d", resp.StatusCode)
	}
	var ask sparqlJSON
	if err := json.Unmarshal(body, &ask); err != nil || ask.Boolean == nil || !*ask.Boolean {
		t.Fatalf("ASK body = %s (err %v)", body, err)
	}
	resp, body = get(t, ts.URL, `
		PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		CONSTRUCT { ?t <http://example.org/pop> ?p } WHERE { ?t noa:population ?p }`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CONSTRUCT status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/n-triples" {
		t.Fatalf("CONSTRUCT Content-Type = %q", ct)
	}
	if n := strings.Count(string(body), "\n"); n != 3 {
		t.Fatalf("CONSTRUCT returned %d statements:\n%s", n, body)
	}
}

func TestMalformedAndMissingQuery(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL, "SELECT WHERE garbage {{{", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status = %d, body %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status = %d", resp.StatusCode)
	}
}

func TestPostFormsAndRawBody(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// Form-encoded query.
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {townQuery}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST form: status %d, body %s", resp.StatusCode, body)
	}
	// Raw sparql-query body.
	resp, err = http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(townQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST raw: status %d, body %s", resp.StatusCode, body)
	}
	var out sparqlJSON
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results.Bindings) != 3 {
		t.Fatalf("POST raw body = %s (err %v)", body, err)
	}
}

func TestUpdateLifecycle(t *testing.T) {
	st, eng := fixture()
	srv, err := NewServer(Config{Engine: eng, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	countQuery := `SELECT (count(*) AS ?n) WHERE { ?t a <http://example.org/Town> }`
	countTowns := func() string {
		t.Helper()
		_, body := get(t, ts.URL, countQuery, nil)
		var out sparqlJSON
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results.Bindings) != 1 {
			t.Fatalf("count body = %s (err %v)", body, err)
		}
		return out.Results.Bindings[0]["n"].Value
	}
	if got := countTowns(); got != "3" {
		t.Fatalf("initial towns = %s", got)
	}

	update := `INSERT DATA { <http://example.org/corinth> a <http://example.org/Town> }`
	// Updates over GET are refused.
	resp, _ := get(t, ts.URL, update, nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET update: status = %d", resp.StatusCode)
	}
	// Updates over POST apply and invalidate the cached count.
	resp, err = http.PostForm(ts.URL+"/sparql", url.Values{"update": {update}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"affected":1}` {
		t.Fatalf("POST update: status %d body %s", resp.StatusCode, body)
	}
	if got := countTowns(); got != "4" {
		t.Fatalf("towns after insert = %s, want 4 (stale cache?)", got)
	}
}

func TestAskGeoJSONFallsBackToJSON(t *testing.T) {
	// An ASK result has no geometry: format=geojson must not claim
	// application/geo+json over a SPARQL-JSON body.
	_, ts := newTestServer(t, nil)
	resp2, err := http.Get(ts.URL + "/sparql?format=geojson&query=" +
		url.QueryEscape(`ASK WHERE { <http://example.org/athens> a <http://example.org/Town> }`))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("ASK geojson Content-Type = %q", ct)
	}
	var out sparqlJSON
	if err := json.Unmarshal(body2, &out); err != nil || out.Boolean == nil || !*out.Boolean {
		t.Fatalf("ASK geojson body = %s (err %v)", body2, err)
	}
}

func TestUpdateIgnoresAcceptHeader(t *testing.T) {
	// Update responses are always JSON; an unsupported Accept must not
	// 406 the request before it executes.
	_, ts := newTestServer(t, nil)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sparql",
		strings.NewReader(url.Values{"update": {`INSERT DATA { <http://example.org/x> a <http://example.org/Town> }`}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", "application/sparql-results+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"affected":1}` {
		t.Fatalf("update with XML Accept: status %d body %s", resp.StatusCode, body)
	}
}

func TestConcurrentUpdatesAreSerialized(t *testing.T) {
	// DELETE/INSERT WHERE is not atomic inside the engine (per-triple
	// store locking); the server must serialise update statements so two
	// concurrent modifies cannot both match the same pre-state and leave
	// duplicate rows.
	_, ts := newTestServer(t, func(c *Config) { c.MaxConcurrency = 8 })
	seed := `INSERT DATA { <http://example.org/reg> <http://example.org/val> "v0" }`
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {seed}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up := fmt.Sprintf(`DELETE { <http://example.org/reg> <http://example.org/val> ?old }
				INSERT { <http://example.org/reg> <http://example.org/val> "v%d" }
				WHERE { <http://example.org/reg> <http://example.org/val> ?old }`, i+1)
			resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {up}})
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// Exactly one value must survive; interleaved updates would leave
	// several (each seeing the same ?old and inserting its own value).
	_, body := get(t, ts.URL,
		`SELECT (count(*) AS ?n) WHERE { <http://example.org/reg> <http://example.org/val> ?v }`, nil)
	var out sparqlJSON
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results.Bindings) != 1 {
		t.Fatalf("count body = %s (err %v)", body, err)
	}
	if got := out.Results.Bindings[0]["n"].Value; got != "1" {
		t.Fatalf("register holds %s values after concurrent updates, want exactly 1", got)
	}
}

func TestUnreprojectableGeometryIsNull(t *testing.T) {
	// A spatial literal whose CRS cannot be transformed to WGS84 must
	// render as a null geometry, never as raw planar coordinates
	// mislabeled as lon/lat — including via the store's ingest cache,
	// which keeps the original coordinates on transform failure.
	st, eng := fixture()
	st.Add(rdf.NewTriple(rdf.IRI(exNS+"odd"), rdf.IRI(noaNS+"hasGeometry"),
		rdf.WKTLiteral("POINT (500000 4100000)", 99999)))
	srv, err := NewServer(Config{Engine: eng, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	query := `PREFIX noa: <http://teleios.di.uoa.gr/noa#>
		SELECT ?g WHERE { <http://example.org/odd> noa:hasGeometry ?g }`
	resp, err := http.Get(ts.URL + "/sparql?format=geojson&query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var fc struct {
		Features []struct {
			Geometry any `json:"geometry"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil || len(fc.Features) != 1 {
		t.Fatalf("body = %s (err %v)", body, err)
	}
	if fc.Features[0].Geometry != nil {
		t.Fatalf("unreprojectable geometry rendered as %v, want null", fc.Features[0].Geometry)
	}
}

func TestUnsupportedWildcardAccept406(t *testing.T) {
	// Only */*, application/* and text/* are wildcards the endpoint can
	// satisfy; image/* names a range it cannot serve.
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL, townQuery, http.Header{"Accept": []string{"image/png, image/*"}})
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("image/* Accept: status = %d", resp.StatusCode)
	}
}

func TestReadOnlyRejectsUpdates(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.ReadOnly = true })
	resp, err := http.PostForm(ts.URL+"/sparql",
		url.Values{"update": {`INSERT DATA { <http://example.org/x> a <http://example.org/Town> }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only update: status = %d", resp.StatusCode)
	}
}

// slowEngine delays every evaluation until released (or for a fixed
// duration), to exercise timeouts and overload behaviour.
type slowEngine struct {
	inner QueryEngine
	delay time.Duration
	gate  chan struct{} // when non-nil, Query blocks until it closes
}

func (s *slowEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	if s.gate != nil {
		<-s.gate
	} else {
		time.Sleep(s.delay)
	}
	return s.inner.EvalContext(ctx, q)
}

type panickyEngine struct{}

func (panickyEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	panic("evaluator bug")
}

func TestEvaluatorPanicIs500NotCrash(t *testing.T) {
	st, _ := fixture()
	srv, err := NewServer(Config{Engine: panickyEngine{}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL, `ASK WHERE { ?s ?p ?o }`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "evaluator bug") {
		t.Fatalf("panic value leaked to the client: %s", body)
	}
	// The worker survived: a second request is still served.
	resp, _ = get(t, ts.URL, `ASK WHERE { ?s ?p ?o }`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second request status = %d (worker dead?)", resp.StatusCode)
	}
}

func TestQueryTimeout503(t *testing.T) {
	st, eng := fixture()
	srv, err := NewServer(Config{
		Engine:       &slowEngine{inner: eng, delay: 200 * time.Millisecond},
		Store:        st,
		QueryTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout response lacks Retry-After")
	}
	if srv.pool.Stats().TimedOut != 1 {
		t.Fatalf("pool stats = %+v", srv.pool.Stats())
	}
}

// ctxEngine blocks until the evaluation context is cancelled, proving
// the deadline reaches the engine (not just the pool wrapper).
type ctxEngine struct{ sawCancel chan struct{} }

func (c *ctxEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	<-ctx.Done()
	close(c.sawCancel)
	return nil, ctx.Err()
}

// TestTimeoutCancelsEvaluation: the per-query deadline must propagate
// into the engine's context so a timed-out query STOPS evaluating
// instead of running to completion after the client is gone.
func TestTimeoutCancelsEvaluation(t *testing.T) {
	st, _ := fixture()
	ce := &ctxEngine{sawCancel: make(chan struct{})}
	srv, err := NewServer(Config{
		Engine:       ce,
		Store:        st,
		QueryTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := get(t, ts.URL, `ASK { ?s ?p ?o }`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	select {
	case <-ce.sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("engine never observed the cancelled context")
	}
}

// TestExplainOverHTTP: an EXPLAIN statement flows through the protocol
// endpoint as an ordinary SELECT result with the single ?plan variable.
func TestExplainOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := get(t, ts.URL, "EXPLAIN "+townQuery, http.Header{"Accept": {"application/sparql-results+json"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "plan" {
		t.Fatalf("vars = %v, want [plan]", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) < 4 {
		t.Fatalf("plan has %d lines, want at least header + 3 operators", len(doc.Results.Bindings))
	}
	all := ""
	for _, b := range doc.Results.Bindings {
		all += b["plan"].Value + "\n"
	}
	for _, want := range []string{"est=", "rows=", "workers=", "order=statistics", "project"} {
		if !strings.Contains(all, want) {
			t.Fatalf("plan missing %q:\n%s", want, all)
		}
	}
	// EXPLAIN ASK / CONSTRUCT serialise as binding tables too — not as
	// a bare boolean or an empty graph (regression: serialisation used
	// to follow the explained form).
	resp, body = get(t, ts.URL, `EXPLAIN ASK { ?s ?p ?o }`, http.Header{"Accept": {"text/csv"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EXPLAIN ASK status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "ASK") || !strings.Contains(string(body), "est=") {
		t.Fatalf("EXPLAIN ASK body is not a plan:\n%s", body)
	}
	resp, body = get(t, ts.URL, `EXPLAIN CONSTRUCT { ?s a <http://ex/T> } WHERE { ?s ?p ?o }`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EXPLAIN CONSTRUCT status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "CONSTRUCT") || !strings.Contains(string(body), "est=") {
		t.Fatalf("EXPLAIN CONSTRUCT body is not a plan:\n%s", body)
	}

	// EXPLAIN of an update is rejected at parse time with a 400.
	resp, _ = get(t, ts.URL, `EXPLAIN INSERT DATA { <http://ex/a> <http://ex/b> <http://ex/c> }`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("EXPLAIN update status = %d, want 400", resp.StatusCode)
	}
}

func TestOverload503(t *testing.T) {
	st, eng := fixture()
	gate := make(chan struct{})
	srv, err := NewServer(Config{
		Engine:         &slowEngine{inner: eng, gate: gate},
		Store:          st,
		MaxConcurrency: 1,
		QueueDepth:     1,
		QueryTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fill the single worker and the single queue slot with gated
	// queries, then overflow.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		query := fmt.Sprintf("SELECT ?t WHERE { ?t a <http://example.org/Town%d> }", i)
		go func() {
			resp, _ := get(t, ts.URL, query, nil)
			results <- resp.StatusCode
		}()
	}
	// Wait until one query occupies the worker and one the queue.
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.Stats().Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queries never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, body %s", resp.StatusCode, body)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("gated query %d finished with %d", i, code)
		}
	}
}

func TestConcurrentRequestsCorrectness(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrency = 4
		c.CacheSize = 8
	})
	queries := []struct {
		query string
		check func([]byte) error
	}{
		{townQuery, func(b []byte) error {
			var out sparqlJSON
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
			if len(out.Results.Bindings) != 3 {
				return fmt.Errorf("got %d rows", len(out.Results.Bindings))
			}
			return nil
		}},
		{`ASK WHERE { <http://example.org/sparta> a <http://example.org/Town> }`, func(b []byte) error {
			var out sparqlJSON
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
			if out.Boolean == nil || !*out.Boolean {
				return fmt.Errorf("ASK = %s", b)
			}
			return nil
		}},
		{`SELECT ?r WHERE { ?r a <http://example.org/Region> }`, func(b []byte) error {
			var out sparqlJSON
			if err := json.Unmarshal(b, &out); err != nil {
				return err
			}
			if len(out.Results.Bindings) != 1 || out.Results.Bindings[0]["r"].Value != exNS+"peloponnese" {
				return fmt.Errorf("regions = %s", b)
			}
			return nil
		}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for i := 0; i < 20; i++ {
		for _, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := get(t, ts.URL, q.query, nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				if err := q.check(body); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOversizedResultsAreNotCached(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxCacheableRows = 2 })
	// 3 town rows exceed the cap: served fine, never cached.
	resp, _ := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if srv.cache.Len() != 0 {
		t.Fatalf("oversized result was cached (%d entries)", srv.cache.Len())
	}
	// A 1-row result stays cacheable.
	get(t, ts.URL, `SELECT ?r WHERE { ?r a <http://example.org/Region> }`, nil)
	if srv.cache.Len() != 1 {
		t.Fatalf("small result not cached (%d entries)", srv.cache.Len())
	}
}

func TestCacheHitsAndLRU(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.CacheSize = 2 })
	q1 := `SELECT ?r WHERE { ?r a <http://example.org/Region> }`
	q2 := `ASK WHERE { <http://example.org/athens> a <http://example.org/Town> }`
	q3 := townQuery
	get(t, ts.URL, q1, nil)
	get(t, ts.URL, q1, nil)
	cs := srv.cache.Stats()
	if cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("after repeat: %+v", cs)
	}
	get(t, ts.URL, q2, nil) // cache: q1, q2
	get(t, ts.URL, q3, nil) // evicts q1
	if srv.cache.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", srv.cache.Len())
	}
	get(t, ts.URL, q1, nil) // must be a miss again
	cs = srv.cache.Stats()
	if cs.Hits != 1 {
		t.Fatalf("LRU eviction failed: %+v", cs)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Triples int    `json:"triples"`
	}
	if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" || health.Triples != 14 {
		t.Fatalf("health = %s (err %v)", body, err)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Store struct {
			Triples int `json:"triples"`
		} `json:"store"`
		Pool struct {
			Workers int `json:"workers"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(body, &stats); err != nil || stats.Store.Triples != 14 || stats.Pool.Workers != 8 {
		t.Fatalf("stats = %s (err %v)", body, err)
	}

	// A read, a write, a read: the second read's view is a delta of one
	// row over the first read's full build.
	get(t, ts.URL, townQuery, nil)
	resp, err = http.PostForm(ts.URL+"/sparql", url.Values{"update": {`INSERT DATA { <http://example.org/new> a <http://example.org/Town> }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	get(t, ts.URL, townQuery, nil)
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var views struct {
		Store storeStats `json:"store"`
	}
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if v := views.Store; v.SnapshotFullBuilds != 1 || v.SnapshotDeltaBuilds != 1 || v.SnapshotDeltaRows != 1 {
		t.Fatalf("view counters = %+v, want 1 full build, 1 delta build of 1 row", v)
	}
}

// vetoJournal refuses every append after fail is set — the disk-full
// case surfaced through the update path.
type vetoJournal struct {
	fail bool
	seq  uint64
}

func (j *vetoJournal) LogAdd([]rdf.Triple) (strabon.Commit, error) {
	if j.fail {
		return strabon.Commit{}, errors.New("no space left on device")
	}
	j.seq++
	return strabon.Commit{Seq: j.seq}, nil
}
func (j *vetoJournal) LogRemove(rdf.Triple) (strabon.Commit, error) {
	j.seq++
	return strabon.Commit{Seq: j.seq}, nil
}
func (j *vetoJournal) LogCompact() (strabon.Commit, error) {
	j.seq++
	return strabon.Commit{Seq: j.seq}, nil
}

// TestUpdateJournalVetoIs500: an update whose WAL append fails must not
// be acknowledged with a 200 — the client would believe a write durable
// that was neither applied nor logged.
func TestUpdateJournalVetoIs500(t *testing.T) {
	j := &vetoJournal{}
	srv, ts := newTestServer(t, nil)
	srv.cfg.Store.SetJournal(j)
	post := func(update string) int {
		resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {update}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const ins = `INSERT DATA { <http://example.org/veto> a <http://example.org/Town> }`
	if code := post(ins); code != http.StatusOK {
		t.Fatalf("healthy journal: status %d", code)
	}
	j.fail = true
	if code := post(`INSERT DATA { <http://example.org/veto2> a <http://example.org/Town> }`); code != http.StatusInternalServerError {
		t.Fatalf("vetoed update: status %d, want 500", code)
	}
	// Reads keep working, and recovery of the journal restores 200s.
	j.fail = false
	if code := post(`INSERT DATA { <http://example.org/veto3> a <http://example.org/Town> }`); code != http.StatusOK {
		t.Fatalf("recovered journal: status %d", code)
	}
}

func TestStatsPersistenceBlock(t *testing.T) {
	// Without a durability source the block reports enabled=false.
	_, ts := newTestServer(t, nil)
	var stats struct {
		Persistence DurabilityStats `json:"persistence"`
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &stats); err != nil || stats.Persistence.Enabled {
		t.Fatalf("stats without durability = %s (err %v)", body, err)
	}
	// With one, the wired telemetry comes through.
	_, ts2 := newTestServer(t, func(c *Config) {
		c.DurabilityStats = func() DurabilityStats {
			return DurabilityStats{WALBytes: 1234, WALSeq: 42, Snapshots: 2, ReplayedRecords: 7}
		}
	})
	resp, err = http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	p := stats.Persistence
	if !p.Enabled || p.WALBytes != 1234 || p.WALSeq != 42 || p.Snapshots != 2 || p.ReplayedRecords != 7 {
		t.Fatalf("persistence block = %+v (%s)", p, body)
	}
}

func TestNotAcceptable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts.URL, townQuery, http.Header{"Accept": []string{"application/xml"}})
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// An unknown ?format= value blames the parameter, not Accept: 400.
	resp, err := http.Get(ts.URL + "/sparql?format=bogus&query=" + url.QueryEscape(townQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"bogus"`) {
		t.Fatalf("bogus format: status = %d body %s", resp.StatusCode, body)
	}
	// A CONSTRUCT cannot be a bindings table: explicitly accepting only
	// text/csv is a 406, while a wildcard falls back to N-Triples.
	construct := `CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`
	resp, _ = get(t, ts.URL, construct, http.Header{"Accept": []string{"text/csv"}})
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Fatalf("CONSTRUCT with csv-only Accept: status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL, construct, http.Header{"Accept": []string{"text/csv, */*;q=0.1"}})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/n-triples" {
		t.Fatalf("CONSTRUCT with wildcard Accept: status = %d ct = %q",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}
