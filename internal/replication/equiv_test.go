package replication

import (
	"math/rand"
	"testing"

	"repro/internal/strabon"
	"repro/internal/stsparql"
	"repro/internal/stsparql/corpus"
)

// TestPrimaryReplicaEquivalence is the replication gate: the shared
// 400-query randomized corpus must return BIT-IDENTICAL results — same
// rows, same row order — from the primary's store and a caught-up
// replica's store, at every -max-query-parallelism level. The replica
// bootstraps from a mid-load snapshot and tails the rest over HTTP, so
// both the snapshot-restore and WAL-replay halves of its state are
// under test. A second leg folds the primary and writes a seeded batch
// of adds and removes, so both sides answer from a base plus a delta.
func TestPrimaryReplicaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng)
	tp := newTestPrimary(t)

	// First half journalled, then checkpointed: the replica's bootstrap
	// snapshot covers it. Second half ships through the live tail.
	half := len(triples) / 2
	tp.st.AddAll(triples[:half])
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep := newReplica(t, tp, "")
	tp.st.AddAll(triples[half:])
	// A couple of removes so the tail carries more than one op type.
	tp.st.Remove(triples[0])
	tp.st.Remove(triples[half])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())

	if !rep.Stats().Bootstrapped {
		t.Fatal("replica should have bootstrapped from the snapshot")
	}
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("replica has %d triples, primary %d", got, want)
	}

	queries := make([]string, 400)
	for i := range queries {
		queries[i] = corpus.RandQuery(rng)
	}
	sameOrderedRows(t, "after bootstrap and tail", tp.st, rep.Store(), queries)

	// A fold on the primary (its checkpoint), then a seeded batch of adds
	// and removes: both sides now serve a base plus a non-empty delta.
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	adds, removes := corpus.Delta(rand.New(rand.NewSource(corpus.Seed+1)), tp.st.Triples())
	tp.st.AddAll(adds)
	for _, tr := range removes {
		tp.st.Remove(tr)
	}
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	for _, st := range []*strabon.Store{tp.st, rep.Store()} {
		st.Snapshot()
		if st.ViewCounters().DeltaRows == 0 {
			t.Fatal("the writes folded: the view has no delta")
		}
	}
	sameOrderedRows(t, "base+delta", tp.st, rep.Store(), queries)
}

// sameOrderedRows runs queries against the primary's and the replica's
// stores at every -max-query-parallelism level and demands bit-identical
// results.
func sameOrderedRows(t *testing.T, leg string, primary, replica *strabon.Store, queries []string) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		peng := stsparql.New(primary)
		peng.MaxParallelism = workers
		reng := stsparql.New(replica)
		reng.MaxParallelism = workers
		for qi, query := range queries {
			pres, perr := peng.Query(query)
			rres, rerr := reng.Query(query)
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("%s, workers=%d query #%d error mismatch:\nprimary=%v\nreplica=%v\nquery:\n%s",
					leg, workers, qi, perr, rerr, query)
			}
			if perr != nil {
				continue
			}
			pr, rr := orderedRows(pres), orderedRows(rres)
			if len(pr) != len(rr) {
				t.Fatalf("%s, workers=%d query #%d row count: primary=%d replica=%d\nquery:\n%s",
					leg, workers, qi, len(pr), len(rr), query)
			}
			for i := range pr {
				if pr[i] != rr[i] {
					t.Fatalf("%s, workers=%d query #%d row %d differs:\nprimary: %s\nreplica: %s\nquery:\n%s",
						leg, workers, qi, i, pr[i], rr[i], query)
				}
			}
		}
	}
}

// TestReplicaBootstrapFromEmptyPrimary: before the first checkpoint the
// primary 404s /snapshot; the replica must start empty and replay the
// entire history from the WAL tail alone.
func TestReplicaBootstrapFromEmptyPrimary(t *testing.T) {
	tp := newTestPrimary(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng)
	tp.st.AddAll(triples[:10])

	rep := newReplica(t, tp, "")
	if rep.Stats().Bootstrapped {
		t.Fatal("no snapshot existed; replica must not claim a bootstrap")
	}
	tp.st.AddAll(triples[10:])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("replica has %d triples, primary %d", got, want)
	}
}
