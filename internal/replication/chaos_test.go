package replication

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stsparql/corpus"
)

// TestReplicaCrashResumesFromLocalState: a replica killed mid-replay
// must restart from its OWN snapshot + WAL — tailing resumes from the
// local cursor, and the primary's snapshot endpoint is NOT hit again.
func TestReplicaCrashResumesFromLocalState(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:20])
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rep := newReplica(t, tp, dir)
	tp.st.AddAll(triples[20:40])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	fetchesBeforeKill := tp.snapshotFetches.Load()
	if fetchesBeforeKill != 1 {
		t.Fatalf("first boot should fetch the snapshot exactly once, got %d", fetchesBeforeKill)
	}

	// "SIGKILL": stop the tailer and close the local WAL with no final
	// checkpoint, leaving exactly the on-disk state a crash would.
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes continue while the replica is down.
	tp.st.AddAll(triples[40:])

	rep2 := newReplica(t, tp, dir)
	waitApplied(t, rep2.AppliedSeq, tp.mgr.LastSeq())
	if got := tp.snapshotFetches.Load(); got != fetchesBeforeKill {
		t.Fatalf("restarted replica re-bootstrapped: %d snapshot fetches, want %d",
			got, fetchesBeforeKill)
	}
	if rep2.Stats().Bootstrapped {
		t.Fatal("restart must recover locally, not bootstrap")
	}
	if got, want := rep2.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("after resume replica has %d triples, primary %d", got, want)
	}
}

// tamperProxy forwards to a backend but, while armed, truncates the
// first non-empty tail response partway through its body and drops the
// connection — the wire shape of a primary dying mid-send.
type tamperProxy struct {
	backend string
	armed   atomic.Bool
	cuts    atomic.Uint64
}

func (p *tamperProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(p.backend + r.URL.RequestURI())
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	body, _ := io.ReadAll(resp.Body)
	if p.armed.Load() && strings.HasSuffix(r.URL.Path, "/tail") && len(body) > 16 {
		p.armed.Store(false)
		p.cuts.Add(1)
		w.Header().Del("Content-Length")
		w.WriteHeader(resp.StatusCode)
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // slam the connection mid-record
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// TestPrimaryDiesMidTailStream: a tail stream cut mid-record must be
// dropped at the torn fragment and re-fetched cleanly on reconnect — no
// gap, no double-apply, and the replica converges to the primary's
// exact state. The primary is then crash-restarted behind the same URL
// and the replica keeps tailing.
func TestPrimaryDiesMidTailStream(t *testing.T) {
	tp := newTestPrimary(t)
	proxy := &tamperProxy{backend: tp.ts.URL}
	front := httptest.NewServer(proxy)
	defer front.Close()

	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:10])

	rep, err := OpenReplica(ReplicaOptions{
		Primary:             front.URL,
		Dir:                 t.TempDir(),
		PollWait:            100 * time.Millisecond,
		RetryMin:            2 * time.Millisecond,
		RetryMax:            50 * time.Millisecond,
		NoCheckpointOnClose: true,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())

	// Arm the tamper and push a batch big enough that the cut lands
	// inside a record.
	proxy.armed.Store(true)
	tp.st.AddAll(triples[10:40])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if proxy.cuts.Load() == 0 {
		t.Fatal("tamper proxy never cut a stream; the test proved nothing")
	}
	if rep.Stats().TornDrops == 0 {
		t.Fatal("replica never saw a torn record despite the cut stream")
	}
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("after torn stream replica has %d triples, primary %d", got, want)
	}

	// Crash-restart the primary (no final checkpoint) behind the same
	// listener; the replica's next poll must pick up post-restart writes.
	tp.crash()
	tp.open()
	tp.st.AddAll(triples[40:])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("after primary restart replica has %d triples, primary %d", got, want)
	}
}

// TestReplicaRebootstrapsWhenWALTrimmed: a replica whose cursor falls
// behind the primary's pruned WAL horizon gets 410 Gone and must wipe
// its directory and re-bootstrap from the newest snapshot rather than
// serve a gapped history.
func TestReplicaRebootstrapsWhenWALTrimmed(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:10])

	dir := t.TempDir()
	rep := newReplica(t, tp, dir)
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// While the replica is down, the primary writes more and checkpoints:
	// the WAL the replica's cursor points into is pruned away.
	tp.st.AddAll(triples[10:30])
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tp.st.AddAll(triples[30:])

	rep2 := newReplica(t, tp, dir)
	waitApplied(t, rep2.AppliedSeq, tp.mgr.LastSeq())
	if rep2.Stats().Rebootstraps == 0 && !rep2.Stats().Bootstrapped {
		t.Fatal("trimmed WAL should have forced a re-bootstrap")
	}
	if got, want := rep2.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("after re-bootstrap replica has %d triples, primary %d", got, want)
	}
}
