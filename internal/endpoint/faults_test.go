package endpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/persist"
	"repro/internal/stsparql"
)

// Admission-control and failpoint chaos for the HTTP endpoint: rate
// limits, load shedding with honest Retry-After hints, degraded
// read-only mode on a broken WAL, and clients that vanish mid-request.
// Failpoints are process-global; no test here may run in parallel.

func armEndpointFaults(t *testing.T, spec string) {
	t.Helper()
	t.Cleanup(faults.Reset)
	if err := faults.EnableFromSpec(spec); err != nil {
		t.Fatalf("EnableFromSpec(%q): %v", spec, err)
	}
}

func admissionStats(t *testing.T, base string) AdmissionStats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Admission AdmissionStats `json:"admission"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad /stats: %v\n%s", err, body)
	}
	return stats.Admission
}

// TestPerClientRateLimit429: a client that exceeds its token bucket
// gets 429 with a Retry-After hint, while other tenants sail through —
// the buckets are per-key, not global.
func TestPerClientRateLimit429(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.RateLimit = 1
		c.RateBurst = 2
	})
	ask := `ASK WHERE { ?s ?p ?o }`
	alice := http.Header{TenantHeader: {"alice"}}

	for i := 0; i < 2; i++ {
		if resp, body := get(t, ts.URL, ask, alice); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	resp, body := get(t, ts.URL, ask, alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status = %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive hint", ra)
	}
	// A different tenant has its own untouched bucket.
	if resp, body := get(t, ts.URL, ask, http.Header{TenantHeader: {"bob"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d, body %s", resp.StatusCode, body)
	}
	if st := admissionStats(t, ts.URL); st.RateLimited < 1 || st.Clients < 2 {
		t.Fatalf("admission stats = %+v, want rate_limited >= 1 and clients >= 2", st)
	}
}

// TestShedWatermark503: once the queue crosses the watermark, new
// queries are refused BEFORE the pool saturates, with a Retry-After
// computed from the observed latency — graceful degradation, not a
// cliff. The gated queries all still complete.
func TestShedWatermark503(t *testing.T) {
	st, eng := fixture()
	gate := make(chan struct{})
	srv, err := NewServer(Config{
		Engine:         &slowEngine{inner: eng, gate: gate},
		Store:          st,
		MaxConcurrency: 1,
		QueueDepth:     4,
		ShedWatermark:  0.5, // shed at 2 of 4 queued
		QueryTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := releaser(gate)
	defer release()

	// One query occupies the worker, two more the queue.
	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		query := fmt.Sprintf("SELECT ?t WHERE { ?t a <http://example.org/Shed%d> }", i)
		go func() {
			resp, _ := get(t, ts.URL, query, nil)
			results <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.Stats().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", srv.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watermark status = %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed 503 without a Retry-After hint")
	}
	stats := admissionStats(t, ts.URL)
	if stats.Shed < 1 {
		t.Fatalf("admission stats = %+v, want shed >= 1", stats)
	}
	if stats.RetryAfterHintS < 1 {
		t.Fatalf("retry_after_hint_s = %d, want >= 1", stats.RetryAfterHintS)
	}

	release()
	for i := 0; i < 3; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("gated query %d finished with %d", i, code)
		}
	}
}

// TestDegradedReadOnlyMode: with DegradedCheck reporting a failure the
// endpoint keeps serving reads but refuses updates with a clear 503
// naming the cause; recovery flips it back without a restart.
func TestDegradedReadOnlyMode(t *testing.T) {
	var broken atomic.Bool
	_, ts := newTestServer(t, func(c *Config) {
		c.DegradedCheck = func() error {
			if broken.Load() {
				return fmt.Errorf("wal broken by an earlier append failure")
			}
			return nil
		}
	})
	post := func(update string) (*http.Response, string) {
		resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {update}})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(body)
	}

	if resp, body := post(`INSERT DATA { <http://example.org/d1> a <http://example.org/Town> }`); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy update: status %d, body %s", resp.StatusCode, body)
	}
	broken.Store(true)
	resp, body := post(`INSERT DATA { <http://example.org/d2> a <http://example.org/Town> }`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded update: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "degraded read-only mode") || !strings.Contains(body, "wal broken") {
		t.Fatalf("degraded 503 body does not name the cause: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	// Reads keep serving from the in-memory store.
	if resp, body := get(t, ts.URL, townQuery, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d, body %s", resp.StatusCode, body)
	}
	st := admissionStats(t, ts.URL)
	if !st.Degraded || st.DegradedDenials < 1 || !strings.Contains(st.DegradedError, "wal broken") {
		t.Fatalf("admission stats = %+v, want degraded with denials", st)
	}
	broken.Store(false)
	if resp, body := post(`INSERT DATA { <http://example.org/d3> a <http://example.org/Town> }`); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered update: status %d, body %s", resp.StatusCode, body)
	}
}

// TestWALBreakDegradesEndpointEndToEnd is the full stack under the
// double fault: a torn WAL append whose rollback also fails. The update
// that hit it gets a 500 (not applied, not durable), every later update
// gets the degraded-mode 503, and reads never stop. This is the exact
// path teleios-server wires via DegradedCheck: persist.Manager.Broken.
func TestWALBreakDegradesEndpointEndToEnd(t *testing.T) {
	mgr, st, err := persist.Open(persist.Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv, err := NewServer(Config{
		Engine:        stsparql.New(st),
		Store:         st,
		DegradedCheck: mgr.Broken,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(update string) int {
		resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {update}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`INSERT DATA { <http://example.org/w1> a <http://example.org/Town> }`); code != http.StatusOK {
		t.Fatalf("healthy update: status %d", code)
	}
	armEndpointFaults(t, "wal/append-write=1*torn(7)->off;wal/rollback=1*error(io)->off")
	if code := post(`INSERT DATA { <http://example.org/w2> a <http://example.org/Town> }`); code != http.StatusInternalServerError {
		t.Fatalf("update through the double fault: status %d, want 500", code)
	}
	// The WAL is now latched broken: honest 503s, not silent data loss.
	if code := post(`INSERT DATA { <http://example.org/w3> a <http://example.org/Town> }`); code != http.StatusServiceUnavailable {
		t.Fatalf("update on broken wal: status %d, want 503", code)
	}
	if resp, body := get(t, ts.URL, `ASK WHERE { <http://example.org/w1> a <http://example.org/Town> }`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("read on broken wal: status %d, body %s", resp.StatusCode, body)
	}
	if st := admissionStats(t, ts.URL); !st.Degraded || st.DegradedDenials < 1 {
		t.Fatalf("admission stats = %+v, want degraded", st)
	}
}

// TestSerializerFaultTruncatesOneResponse: an injected serializer
// failure fails that one response and caches nothing — the next request
// serialises fully. A cacheable body is encoded before anything is
// written, so the failure still gets an honest 500.
func TestSerializerFaultTruncatesOneResponse(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	armEndpointFaults(t, "endpoint/serialize=1*error(encoder exploded)->off")

	resp, body := get(t, ts.URL, townQuery, nil)
	if len(body) != 0 {
		t.Fatalf("faulted response carried %d bytes: %s", len(body), body)
	}
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("ETag") != "" {
		t.Fatalf("faulted response: status %d, ETag %q; want 500 without an ETag",
			resp.StatusCode, resp.Header.Get("ETag"))
	}
	if faults.Hits("endpoint/serialize") < 1 {
		t.Fatal("serializer failpoint never hit")
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("a faulted response left %d cache entries", n)
	}
	resp, body = get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "athens") {
		t.Fatalf("follow-up request: status %d, body %s", resp.StatusCode, body)
	}
}

// TestClientDisconnectMidEvaluation: a client that hangs up while its
// query is evaluating must not wedge the worker or the server — the
// abandoned evaluation finishes into the void and the pool keeps
// serving. The package's leakcheck TestMain proves nothing lingers.
func TestClientDisconnectMidEvaluation(t *testing.T) {
	st, eng := fixture()
	gate := make(chan struct{})
	srv, err := NewServer(Config{
		Engine:         &slowEngine{inner: eng, gate: gate},
		Store:          st,
		MaxConcurrency: 1,
		QueryTimeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	release := releaser(gate)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/sparql?query="+url.QueryEscape(`SELECT ?t WHERE { ?t a <http://example.org/Gone> }`), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.pool.Stats().Submitted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("disconnected request reported success")
	}
	release() // the abandoned evaluation drains

	if resp, body := get(t, ts.URL, townQuery, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect: status %d, body %s", resp.StatusCode, body)
	}
}

// TestClientDisconnectMidSerialization: the client vanishes while the
// serializer is mid-stream (latency injected at the top of writeResult);
// the write error is swallowed, the connection dropped, and the server
// keeps answering.
func TestClientDisconnectMidSerialization(t *testing.T) {
	_, ts := newTestServer(t, nil)
	armEndpointFaults(t, "endpoint/serialize=1*sleep(300ms)->off")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/sparql?query="+url.QueryEscape(townQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatal("request should have been cut off mid-serialization")
	}
	if faults.Hits("endpoint/serialize") < 1 {
		t.Fatal("serializer failpoint never hit")
	}
	if resp, body := get(t, ts.URL, townQuery, nil); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "athens") {
		t.Fatalf("request after disconnect: status %d, body %s", resp.StatusCode, body)
	}
}

// Unit coverage for the Retry-After arithmetic and shed thresholds —
// the pieces the HTTP tests can only observe indirectly.

func TestRetryAfterMath(t *testing.T) {
	a := newAdmission(Config{})
	if got := a.retryAfter(PoolStats{Workers: 4, Queued: 10}); got != 1 {
		t.Fatalf("no latency observed: hint %d, want the floor 1", got)
	}
	a.observe(2 * time.Second) // first sample seeds the EWMA directly
	// 3 queued + this one, 2s each, 2 workers: ceil(4*2000/2/1000) = 4s.
	if got := a.retryAfter(PoolStats{Workers: 2, Queued: 3}); got != 4 {
		t.Fatalf("hint = %d, want 4", got)
	}
	// A huge backlog clamps to the 60s ceiling.
	if got := a.retryAfter(PoolStats{Workers: 1, Queued: 1000}); got != 60 {
		t.Fatalf("clamped hint = %d, want 60", got)
	}
	// Fast queries floor at 1 second rather than promising "0".
	b := newAdmission(Config{})
	b.observe(3 * time.Millisecond)
	if got := b.retryAfter(PoolStats{Workers: 8, Queued: 0}); got != 1 {
		t.Fatalf("fast-query hint = %d, want 1", got)
	}
}

func TestEWMATracksLatency(t *testing.T) {
	a := newAdmission(Config{})
	a.observe(100 * time.Millisecond)
	if got := a.meanMs(); got != 100 {
		t.Fatalf("seed mean = %v, want 100", got)
	}
	a.observe(200 * time.Millisecond)
	if got := a.meanMs(); got != 120 { // 100 + 0.2*(200-100)
		t.Fatalf("mean after second sample = %v, want 120", got)
	}
}

func TestShedThresholds(t *testing.T) {
	full := newAdmission(Config{}) // watermark defaults to 1.0
	if full.shouldShed(PoolStats{QueueCap: 4, Queued: 3}) {
		t.Fatal("shed below a full queue at watermark 1.0")
	}
	if !full.shouldShed(PoolStats{QueueCap: 4, Queued: 4}) {
		t.Fatal("no shed at a full queue")
	}
	half := newAdmission(Config{ShedWatermark: 0.5})
	if half.shouldShed(PoolStats{QueueCap: 4, Queued: 1}) {
		t.Fatal("shed below the 0.5 watermark")
	}
	if !half.shouldShed(PoolStats{QueueCap: 4, Queued: 2}) {
		t.Fatal("no shed at the 0.5 watermark")
	}
	// An unbuffered pool relies on the pool's own handoff rejection.
	if half.shouldShed(PoolStats{QueueCap: 0, Queued: 0}) {
		t.Fatal("shed with no queue to measure")
	}
}

func TestClientKeying(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/sparql", nil)
	req.RemoteAddr = "192.0.2.7:49152"
	if got := clientKey(req); got != "addr:192.0.2.7" {
		t.Fatalf("addr key = %q", got)
	}
	req.Header.Set(TenantHeader, "noa-fire-monitoring")
	if got := clientKey(req); got != "tenant:noa-fire-monitoring" {
		t.Fatalf("tenant key = %q", got)
	}
}
