package stsparql

// Heap-vs-mapped equivalence: the randomized corpus must
// return bit-identical results (same rows, same row order) whether the
// store serves queries from a heap store's fold image or in place from a
// packed, mmap-ed snapshot file — at morsel parallelism 1, 2 and 4 — and the
// read-only workload must never force the mapped store to materialise.
// After the same writes on both, each serves its base plus a delta, and
// the results must stay bit-identical, also against a fresh fold.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colpack"
	"repro/internal/strabon"
	"repro/internal/stsparql/corpus"
)

// mappedEquivStore round-trips src through a packed snapshot file and
// restores it mapped. The mapping stays alive for the store's
// lifetime (process exit unmaps).
func mappedEquivStore(t *testing.T, src *strabon.Store) *strabon.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.pack")
	img, _ := src.Fold(1).Image()
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := colpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := strabon.RestorePacked(r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHeapMappedEquivalence(t *testing.T) {
	forceTinyMorsels(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	heapSt := equivStore(rng)
	mappedSt := mappedEquivStore(t, heapSt)
	if mode := mappedSt.StorageMode(); mode != "mapped" {
		t.Fatalf("restored store mode = %q, want mapped", mode)
	}

	queries := corpus.Queries(rng, 400)
	sameOrderedResults(t, "read-only", heapSt, mappedSt, queries)
	// The whole read-only corpus must have run in place.
	if mode := mappedSt.StorageMode(); mode != "mapped" {
		t.Fatalf("corpus materialised the store (mode %q)", mode)
	}

	// The same writes on both: each view is now its base (a fold image,
	// the mapped file) plus a delta, and must still answer as one full
	// build would — and as a fresh fold of the same version does.
	writeDelta(t, corpus.Seed+1, heapSt, mappedSt)
	sameOrderedResults(t, "base+delta", heapSt, mappedSt, queries)
	heapSt.Fold(0)
	sameOrderedResults(t, "folded vs base+delta", heapSt, mappedSt, queries)
}

// sameOrderedResults runs queries against two stores at morsel
// parallelism 1, 2 and 4 and demands bit-identical results, row order
// included.
func sameOrderedResults(t *testing.T, leg string, a, b *strabon.Store, queries []string) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		aEng := New(a)
		aEng.MaxParallelism = workers
		bEng := New(b)
		bEng.MaxParallelism = workers
		for qi, query := range queries {
			ares, aerr := aEng.Query(query)
			bres, berr := bEng.Query(query)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s, workers=%d query #%d error mismatch:\n%v\n%v\nquery:\n%s",
					leg, workers, qi, aerr, berr, query)
			}
			if aerr != nil {
				continue
			}
			want := orderedBindings(ares)
			got := orderedBindings(bres)
			if len(got) != len(want) {
				t.Fatalf("%s, workers=%d query #%d row count: %d vs %d\nquery:\n%s",
					leg, workers, qi, len(want), len(got), query)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s, workers=%d query #%d row %d differs (order matters):\n%s\n%s\nquery:\n%s",
						leg, workers, qi, i, want[i], got[i], query)
				}
			}
		}
	}
}
