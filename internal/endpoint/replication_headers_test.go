package endpoint

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// journalOn attaches a seq-advancing journal to the test server's store
// so the applied-seq watermark actually moves, the way it does on a
// durable primary. Returns the journal for seq inspection.
func journalOn(srv *Server) *vetoJournal {
	j := &vetoJournal{}
	srv.cfg.Store.SetJournal(j)
	return j
}

// TestReadCarriesAppliedSeq: every read response advertises the
// watermark it was evaluated at — the token a client hands to
// Teleios-Min-Version for read-your-writes on a replica.
func TestReadCarriesAppliedSeq(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	j := journalOn(srv)
	srv.cfg.Store.Add(rdf.NewTriple(rdf.IRI(exNS+"x"), rdf.IRI(exNS+"p"), rdf.Literal("v")))

	resp, _ := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := resp.Header.Get("Teleios-Applied-Seq")
	if got != strconv.FormatUint(j.seq, 10) {
		t.Fatalf("Teleios-Applied-Seq = %q, want %d", got, j.seq)
	}
}

// TestUpdateResponseCarriesWatermark: an acked update's response header
// is the exact watermark the client must demand to read its own write.
func TestUpdateResponseCarriesWatermark(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	journalOn(srv)

	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {
		`INSERT DATA { <http://example.org/new> <http://example.org/p> "w" }`,
	}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	hdr := resp.Header.Get("Teleios-Applied-Seq")
	want := srv.cfg.Store.AppliedSeq()
	if want == 0 {
		t.Fatal("journalled update left the watermark at 0")
	}
	if hdr != strconv.FormatUint(want, 10) {
		t.Fatalf("update Teleios-Applied-Seq = %q, want %d", hdr, want)
	}
}

// TestMinVersionBackstop: a read demanding a watermark this server has
// not reached is refused with 503 + Retry-After rather than silently
// served stale; a satisfied demand is served; garbage is the client's
// bug (400).
func TestMinVersionBackstop(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	journalOn(srv)
	srv.cfg.Store.Add(rdf.NewTriple(rdf.IRI(exNS+"x"), rdf.IRI(exNS+"p"), rdf.Literal("v")))
	at := srv.cfg.Store.AppliedSeq()

	resp, _ := get(t, ts.URL, townQuery, http.Header{
		"Teleios-Min-Version": {strconv.FormatUint(at, 10)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("satisfied watermark: status %d", resp.StatusCode)
	}

	resp, body := get(t, ts.URL, townQuery, http.Header{
		"Teleios-Min-Version": {strconv.FormatUint(at+100, 10)},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfied watermark: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if resp.Header.Get("Teleios-Applied-Seq") != strconv.FormatUint(at, 10) {
		t.Fatalf("503 should report the current watermark, got %q",
			resp.Header.Get("Teleios-Applied-Seq"))
	}

	resp, _ = get(t, ts.URL, townQuery, http.Header{"Teleios-Min-Version": {"not-a-number"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage watermark: status %d, want 400", resp.StatusCode)
	}
}

// TestETagRevalidation: the ETag is a strong validator over (query,
// version, applied-seq, format) — If-None-Match short-circuits to 304
// until ANY write lands, including one that leaves Version-visible
// structure alone but moves the watermark.
func TestETagRevalidation(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	journalOn(srv)

	resp, _ := get(t, ts.URL, townQuery, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("read response has no ETag")
	}

	resp, body := get(t, ts.URL, townQuery, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, body %s", resp.StatusCode, body)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a body: %q", body)
	}

	// Wildcard and a list containing the ETag must also match.
	for _, inm := range []string{"*", `"zzz", ` + etag, "W/" + etag} {
		resp, _ = get(t, ts.URL, townQuery, http.Header{"If-None-Match": {inm}})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
	}

	// A write invalidates: same If-None-Match now misses.
	srv.cfg.Store.Add(rdf.NewTriple(rdf.IRI(exNS+"y"), rdf.IRI(exNS+"p"), rdf.Literal("v2")))
	resp, _ = get(t, ts.URL, townQuery, http.Header{"If-None-Match": {etag}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match after write: status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged across a write")
	}
}

// TestETagVariesByFormat: the validator covers the negotiated format —
// a JSON 304 must never be served against a CSV cache entry.
func TestETagVariesByFormat(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	journalOn(srv)

	respJSON, _ := get(t, ts.URL, townQuery, http.Header{"Accept": {"application/sparql-results+json"}})
	respCSV, _ := get(t, ts.URL, townQuery, http.Header{"Accept": {"text/csv"}})
	j, c := respJSON.Header.Get("ETag"), respCSV.Header.Get("ETag")
	if j == "" || c == "" || j == c {
		t.Fatalf("format-blind ETags: json=%q csv=%q", j, c)
	}
}

// lateWriteEngine lands one write at its first evaluation: after the
// handler pinned its view, before the engine reads.
type lateWriteEngine struct {
	inner QueryEngine
	st    *strabon.Store
	late  rdf.Triple
	once  sync.Once
}

func (e *lateWriteEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	e.once.Do(func() { e.st.Add(e.late) })
	return e.inner.EvalContext(ctx, q)
}

// TestWriteAfterPinStaysOutOfTheResponse: a write landing between the
// handler's pin and the engine's read must not reach the body, because
// the ETag and Teleios-Applied-Seq name the pinned view; the next read
// sees the write under another ETag.
func TestWriteAfterPinStaysOutOfTheResponse(t *testing.T) {
	st, eng := fixture()
	st.SetJournal(&vetoJournal{})
	st.Add(rdf.NewTriple(rdf.IRI(exNS+"x"), rdf.IRI(exNS+"p"), rdf.Literal("v")))
	late := rdf.NewTriple(rdf.IRI(exNS+"corinth"), rdf.IRI(rdf.RDFType), rdf.IRI(exNS+"Town"))
	srv, err := NewServer(Config{Engine: &lateWriteEngine{inner: eng, st: st, late: late}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const q = `SELECT ?t WHERE { ?t a <http://example.org/Town> }`
	pinned := cacheKey{src: q, version: st.Version(), seq: st.AppliedSeq(), format: FormatJSON}
	resp, body := get(t, ts.URL, q, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), "corinth") {
		t.Fatalf("the body holds a triple written after the pin: %s", body)
	}
	etag := resp.Header.Get("ETag")
	if etag != pinned.etag() {
		t.Fatalf("ETag = %s, want the pinned view's %s", etag, pinned.etag())
	}
	if got := resp.Header.Get("Teleios-Applied-Seq"); got != strconv.FormatUint(pinned.seq, 10) {
		t.Fatalf("Teleios-Applied-Seq = %q, want the pinned %d", got, pinned.seq)
	}

	resp, body = get(t, ts.URL, q, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "corinth") {
		t.Fatalf("follow-up read: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("a body with the late write kept the pinned view's ETag")
	}
}

// gatedJournal hands out tickets that stay not durable until release
// is closed.
type gatedJournal struct {
	seq     uint64
	release chan struct{}
}

func (j *gatedJournal) LogApply(dels, ins []rdf.Triple) (strabon.Commit, error) {
	j.seq++
	return strabon.Commit{Seq: j.seq, Wait: func() error { <-j.release; return nil }}, nil
}

// TestViewBuiltMidCommitServesTheWatermark: a read that builds the view
// of an update installed but not yet durable sees the older applied
// seq. Once the update is durable, a read demanding its seq must be
// served from that same view, not refused because the view kept the
// seq it was built at.
func TestViewBuiltMidCommitServesTheWatermark(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	st := srv.cfg.Store
	j := &gatedJournal{release: make(chan struct{})}
	st.SetJournal(j)
	before := st.Version()

	acked := make(chan string, 1)
	go func() {
		resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {
			`INSERT DATA { <http://example.org/corinth> a <http://example.org/Town> }`,
		}})
		if err != nil {
			acked <- err.Error()
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		acked <- resp.Status + " seq=" + resp.Header.Get("Teleios-Applied-Seq")
	}()
	deadline := time.Now().Add(5 * time.Second)
	for st.Version() == before {
		if time.Now().After(deadline) {
			t.Fatal("the update was never installed")
		}
		time.Sleep(time.Millisecond)
	}

	// Installed, not durable: this read builds the new version's view.
	resp, body := get(t, ts.URL, townQuery, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Teleios-Applied-Seq") != "0" {
		t.Fatalf("mid-commit read: status %d, seq %q, body %s",
			resp.StatusCode, resp.Header.Get("Teleios-Applied-Seq"), body)
	}
	close(j.release)
	if got := <-acked; got != "200 OK seq=1" {
		t.Fatalf("update: %s, want 200 OK seq=1", got)
	}
	resp, body = get(t, ts.URL, townQuery, http.Header{"Teleios-Min-Version": {"1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read at the durable update's seq: status %d, body %s", resp.StatusCode, body)
	}
}
