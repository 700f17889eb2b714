package strabon

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/colpack"
	"repro/internal/rdf"
)

// observation returns the triples of instrument observation i: what an
// always-on fleet writes, one small statement at a time.
func observation(i int) []rdf.Triple {
	s := rdf.IRI(fmt.Sprintf("http://ex/obs/%d", i))
	return []rdf.Triple{
		rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Observation")),
		rdf.NewTriple(s, rdf.IRI("http://ex/sensor"), rdf.IRI(fmt.Sprintf("http://ex/sensor/%d", i%97))),
		rdf.NewTriple(s, rdf.IRI("http://ex/value"), rdf.TypedLiteral(fmt.Sprintf("%d.25", i), rdf.XSDDouble)),
		rdf.NewTriple(s, rdf.IRI("http://ex/at"), rdf.TypedLiteral(fmt.Sprintf("POINT (%d.5 %d.5)", 20+i%17, 34+i%7), rdf.StRDFWKT)),
	}
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestWritesDoNotCopyTheBase is the memory regression test for the write
// side: a store restored from a packed file of 160k triples takes 2,000
// single-observation statements and 200 deletions of base rows, and its
// retained heap grows with what was written (plus the term index, at
// most 32 bytes a base term), not with the rows of the base; and the
// store stays mapped, also once a view layers the writes on the file.
func TestWritesDoNotCopyTheBase(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 160k-triple image")
	}
	const baseObs, writes, removes = 40000, 2000, 200
	path := filepath.Join(t.TempDir(), "snap.pack")
	func() {
		src := NewStore()
		var batch []rdf.Triple
		for i := 0; i < baseObs; i++ {
			batch = append(batch, observation(i)...)
		}
		src.AddAll(batch)
		img, _ := src.Fold(1).Image()
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	r, err := colpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := RestorePacked(r)
	if err != nil {
		t.Fatal(err)
	}
	baseRows, baseTerms := st.Len(), st.Stats().Terms
	before := liveHeap()
	for i := 0; i < writes; i++ {
		if n, err := st.Apply(nil, observation(baseObs+i)); n != 4 || err != nil {
			t.Fatalf("write %d: %d, %v", i, n, err)
		}
	}
	for i := 0; i < removes; i++ {
		if n, err := st.Apply(observation(i * 97)[2:3], nil); n != 1 || err != nil {
			t.Fatalf("removal %d: %d, %v", i, n, err)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	if mode := st.StorageMode(); mode != "mapped" {
		t.Fatalf("after the writes StorageMode = %q, want mapped", mode)
	}
	if want := baseRows - removes + 4*writes; st.Len() != want {
		t.Fatalf("Len = %d, want %d", st.Len(), want)
	}
	// A heap copy of the base costs ≥ 200 B a base row (columns, the
	// duplicate set, the dictionary, the parsed geometries); the delta
	// here costs ≈ 1 KiB a statement.
	budget := int64(1536*(writes+removes) + 32*baseTerms)
	t.Logf("heap grew %d bytes for %d base rows, %d base terms and %d statements (budget %d)",
		grown, baseRows, baseTerms, writes+removes, budget)
	if grown > budget {
		t.Fatalf("heap grew %d bytes, more than the delta's budget of %d: %.0f B per base row",
			grown, budget, float64(grown)/float64(baseRows))
	}
	// A view over the delta still answers from the file.
	if st.Snapshot(); st.StorageMode() != "mapped" {
		t.Fatalf("after a view StorageMode = %q, want mapped", st.StorageMode())
	}
}
