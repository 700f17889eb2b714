package replication

import (
	"math/rand"
	"testing"

	"repro/internal/stsparql"
	"repro/internal/stsparql/corpus"
)

// TestReplicaBootstrapsPackedWithZeroReplay: with a packed-format
// primary (the default), a fresh replica's bootstrap is fetch + verify
// + mmap — the downloaded snapshot IS the replica's working store, so
// recovery replays nothing and the store serves queries in place.
// Tail catch-up past the snapshot then lands in a delta over the mapped
// file: the replica never copies it to the heap.
func TestReplicaBootstrapsPackedWithZeroReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(corpus.Seed))
	triples := corpus.Triples(rng, corpus.Subjects)
	tp := newTestPrimary(t)
	tp.st.AddAll(triples)
	if err := tp.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	rep := newReplica(t, tp, "")
	if !rep.Stats().Bootstrapped {
		t.Fatal("replica should have bootstrapped from the snapshot")
	}
	stats := rep.Manager().Stats()
	if stats.ReplayedRecords != 0 {
		t.Fatalf("bootstrap replayed %d WAL records, want 0 (snapshot covers everything)", stats.ReplayedRecords)
	}
	if stats.StoreMode != "mapped" {
		t.Fatalf("bootstrapped store mode %q, want mapped (packed snapshot served in place)", stats.StoreMode)
	}
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("replica has %d triples, primary %d", got, want)
	}

	// The mapped store must answer real queries without materialising.
	eng := stsparql.New(rep.Store())
	res, err := eng.Query(`SELECT ?s ?o WHERE { ?s <http://example.org/hasConfidence> ?o } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if mode := rep.Manager().Stats().StoreMode; mode != "mapped" {
		t.Fatalf("read-only query materialised the store (mode %q)", mode)
	}

	// Live tail catch-up is a mutation: it goes to the delta over the
	// mapped file, and the replica keeps tracking the primary.
	tp.st.AddAll(corpus.Triples(rng, corpus.Subjects)[:50])
	waitApplied(t, rep.AppliedSeq, tp.mgr.LastSeq())
	if got, want := rep.Store().Len(), tp.st.Len(); got != want {
		t.Fatalf("after tail catch-up replica has %d triples, primary %d", got, want)
	}
	if mode := rep.Manager().Stats().StoreMode; mode != "mapped" {
		t.Fatalf("post-mutation store mode %q, want mapped", mode)
	}
}
