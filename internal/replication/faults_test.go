package replication

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/stsparql"
	"repro/internal/stsparql/corpus"
)

// Failpoint-driven chaos for the replication pipeline: bootstrap fetch
// failures, tail connection faults, and a primary that tears the
// record stream mid-send. Every test ends with the replica converged
// and bit-identical to the primary. Failpoints are process-global, so
// none of these run in parallel.

func armReplFaults(t *testing.T, spec string) {
	t.Helper()
	t.Cleanup(faults.Reset)
	if err := faults.EnableFromSpec(spec); err != nil {
		t.Fatalf("EnableFromSpec(%q): %v", spec, err)
	}
}

// TestBootstrapRetriesThroughFetchFaults: two injected snapshot-fetch
// failures must be absorbed by the jittered-backoff retry loop — the
// replica still comes up on the third attempt and only one real HTTP
// fetch ever reaches the primary.
func TestBootstrapRetriesThroughFetchFaults(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:20])
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	armReplFaults(t, "replica/fetch-snapshot=2*error(connection refused)->off")
	rep := newReplica(t, tp, "")
	if faults.Hits("replica/fetch-snapshot") < 3 {
		t.Fatalf("fetch-snapshot hit %d times, want >= 3 (two failures, one pass)",
			faults.Hits("replica/fetch-snapshot"))
	}
	if got := tp.snapshotFetches.Load(); got != 1 {
		t.Fatalf("%d snapshot requests reached the primary, want 1", got)
	}
	if !rep.Stats().Bootstrapped {
		t.Fatal("replica should have bootstrapped despite the injected failures")
	}
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("replica has %d triples, primary %d", got, want)
	}
}

// TestBootstrapGivesUpWhenPrimaryStaysDown: a permanently failing fetch
// exhausts the retry budget and surfaces the injected error from
// OpenReplica instead of hanging or panicking.
func TestBootstrapGivesUpWhenPrimaryStaysDown(t *testing.T) {
	tp := newTestPrimary(t)
	armReplFaults(t, "replica/fetch-snapshot=error(primary unreachable)")

	_, err := OpenReplica(ReplicaOptions{
		Primary:  tp.ts.URL,
		Dir:      t.TempDir(),
		RetryMin: 1,
		RetryMax: 2,
		Logf:     t.Logf,
	})
	if err == nil {
		t.Fatal("OpenReplica succeeded with every fetch failing")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want the injected fetch error", err)
	}
	if !strings.Contains(err.Error(), "bootstrap") {
		t.Fatalf("err = %v, want it labelled as a bootstrap failure", err)
	}
	if got := faults.Hits("replica/fetch-snapshot"); got != 4 {
		t.Fatalf("fetch-snapshot hit %d times, want the full 4-attempt budget", got)
	}
}

// TestTailFaultsReconnectAndConverge: injected tail-request failures
// force reconnects but never lose records — the replica backs off,
// retries from its local cursor, and converges bit-identically.
func TestTailFaultsReconnectAndConverge(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:20])

	rep := newReplica(t, tp, "")
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())

	// The replica is parked in a long poll that already passed the
	// failpoint check, so arm and then wait for all three injections to
	// land on subsequent reconnect attempts before writing more.
	armReplFaults(t, "replica/tail=3*error(connection reset)->off")
	waitApplied(t, func() uint64 { return faults.Hits("replica/tail") }, 3)
	tp.st.AddAll(triples[20:])
	tp.st.Remove(triples[0])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())

	if got := rep.Stats().Reconnects; got < 3 {
		t.Fatalf("reconnects = %d, want >= 3 (one per injected failure)", got)
	}
	assertReplicaEquivalent(t, tp, rep, rng, 100)
}

// TestTornTailStreamDroppedAndResumed: the primary tears the record
// stream mid-send (process death between two writes of one record).
// The replica must apply the clean prefix, count and discard the torn
// fragment, reconnect past the last good record, and converge without
// a re-bootstrap.
func TestTornTailStreamDroppedAndResumed(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp.st.AddAll(triples[:20])

	rep := newReplica(t, tp, "")
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	fetches := tp.snapshotFetches.Load()

	// 12 bytes is inside the record header+payload of every op in this
	// stream: the replica sees a short, CRC-less fragment.
	armReplFaults(t, "primary/tail-serve=1*torn(12)->off")
	tp.st.AddAll(triples[20:40])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())

	if got := rep.Stats().TornDrops; got < 1 {
		t.Fatalf("torn_drops = %d, want >= 1", got)
	}
	if got := tp.snapshotFetches.Load(); got != fetches {
		t.Fatalf("torn stream triggered a re-bootstrap (%d fetches, was %d)", got, fetches)
	}
	assertReplicaEquivalent(t, tp, rep, rng, 100)
}

// assertReplicaEquivalent runs corpus.Queries(rng, n) against both
// stores and requires bit-identical results (rows AND row order).
func assertReplicaEquivalent(t *testing.T, tp *testPrimary, rep *Replica, rng *rand.Rand, n int) {
	t.Helper()
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("replica has %d triples, primary %d", got, want)
	}
	peng, reng := stsparql.New(tp.st), stsparql.New(rep.Store())
	for qi, query := range corpus.Queries(rng, n) {
		pres, perr := peng.Query(query)
		rres, rerr := reng.Query(query)
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("query #%d error mismatch:\nprimary=%v\nreplica=%v\nquery:\n%s", qi, perr, rerr, query)
		}
		if perr != nil {
			continue
		}
		pr, rr := orderedRows(pres), orderedRows(rres)
		if len(pr) != len(rr) {
			t.Fatalf("query #%d row count: primary=%d replica=%d\nquery:\n%s", qi, len(pr), len(rr), query)
		}
		for i := range pr {
			if pr[i] != rr[i] {
				t.Fatalf("query #%d row %d differs:\nprimary: %s\nreplica: %s\nquery:\n%s",
					qi, i, pr[i], rr[i], query)
			}
		}
	}
}
