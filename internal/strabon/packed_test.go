package strabon

// Mapped-snapshot tests: a Snapshot backed by a packed snapshot file
// must be observationally identical to the heap snapshot it was
// written from, and a RestorePacked store must answer reads in place
// until the first mutation materialises it.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/colpack"
	"repro/internal/geo"
	"repro/internal/rdf"
)

// packFixture writes st's current state as a packed file and opens it.
// The reader is closed with the test.
func packFixture(t *testing.T, st *Store, seq uint64) *colpack.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.pack")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colpack.Write(f, st.Fold().PackData(seq)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := colpack.Open(path)
	if err != nil {
		t.Fatalf("opening just-written packed snapshot: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// packedFixtureStore builds a store with enough variety to exercise
// every section: multiple predicates, shared objects, literals with
// datatypes and language tags, and spatial literals.
func packedFixtureStore(n int) *Store {
	st := NewStore()
	var batch []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("http://ex/s%d", i))
		batch = append(batch,
			rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI(fmt.Sprintf("http://ex/Class%d", i%5))),
			rdf.NewTriple(s, rdf.IRI("http://ex/val"), rdf.IntegerLiteral(int64(i%97))),
			rdf.NewTriple(s, rdf.IRI("http://ex/label"), rdf.LangLiteral(fmt.Sprintf("item %d", i), "en")))
		if i%10 == 0 {
			batch = append(batch, rdf.NewTriple(s, rdf.IRI("http://ex/geom"),
				rdf.TypedLiteral(fmt.Sprintf("POINT (%d.5 %d.5)", 20+i%40, 30+i%30),
					"http://strdf.di.uoa.gr/ontology#WKT")))
		}
	}
	st.AddAll(batch)
	return st
}

func TestMappedSnapshotEquivalence(t *testing.T) {
	st := packedFixtureStore(500)
	heap := st.Snapshot()
	mapped := NewMappedSnapshot(packFixture(t, st, 42))

	if !mapped.Mapped() || heap.Mapped() {
		t.Fatal("Mapped() misreports mode")
	}
	if mapped.NRows() != heap.NRows() {
		t.Fatalf("NRows: mapped %d, heap %d", mapped.NRows(), heap.NRows())
	}
	if mapped.Version() != heap.Version() {
		t.Fatalf("Version: mapped %d, heap %d", mapped.Version(), heap.Version())
	}

	// Every row decodes identically, via Row, ColID and DecodeAll.
	for row := int32(0); row < int32(heap.NRows()); row++ {
		hs, hp, ho := heap.Row(row)
		ms, mp, mo := mapped.Row(row)
		if hs != ms || hp != mp || ho != mo {
			t.Fatalf("row %d: mapped (%d,%d,%d), heap (%d,%d,%d)", row, ms, mp, mo, hs, hp, ho)
		}
		for comp, want := range []uint64{hs, hp, ho} {
			if got := mapped.ColID(comp, row); got != want {
				t.Fatalf("ColID(%d, %d) = %d, want %d", comp, row, got, want)
			}
		}
	}
	ids := []uint64{0, 1, 2, 3, uint64(heap.dict.Len()), uint64(heap.dict.Len()) + 1, 1 << 40}
	hOut := make([]rdf.Term, len(ids))
	mOut := make([]rdf.Term, len(ids))
	heap.DecodeAll(ids, hOut)
	mapped.DecodeAll(ids, mOut)
	for i := range ids {
		if hOut[i] != mOut[i] {
			t.Fatalf("DecodeAll id %d: mapped %v, heap %v", ids[i], mOut[i], hOut[i])
		}
	}

	// Term lookup round-trips for every dictionary term and misses
	// cleanly for unknown ones.
	for id := uint64(1); id <= uint64(heap.dict.Len()); id++ {
		term, ok := mapped.DecodeTerm(id)
		if !ok {
			t.Fatalf("DecodeTerm(%d) missing", id)
		}
		want, _ := heap.DecodeTerm(id)
		if term != want {
			t.Fatalf("DecodeTerm(%d) = %v, want %v", id, term, want)
		}
		back, ok := mapped.Lookup(term)
		if !ok || back != id {
			t.Fatalf("Lookup(%v) = (%d, %v), want (%d, true)", term, back, ok, id)
		}
	}
	if _, ok := mapped.Lookup(rdf.IRI("http://ex/never-inserted")); ok {
		t.Fatal("Lookup hit for unknown term")
	}

	// MatchRows and Cardinality agree across pattern shapes.
	typeID, _ := heap.Lookup(rdf.IRI(rdf.RDFType))
	classID, _ := heap.Lookup(rdf.IRI("http://ex/Class1"))
	s7, _ := heap.Lookup(rdf.IRI("http://ex/s7"))
	pats := []TriplePattern{
		{},
		{P: typeID},
		{S: s7},
		{O: classID},
		{P: typeID, O: classID},
		{S: s7, P: typeID},
		{S: s7, P: typeID, O: classID + 1},
		{S: 1 << 40},
	}
	var hBuf, mBuf []int32
	for _, pat := range pats {
		want := heap.MatchRows(pat, &hBuf)
		got := mapped.MatchRows(pat, &mBuf)
		if len(got) != len(want) {
			t.Fatalf("pattern %+v: mapped %d rows, heap %d", pat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %+v row %d: mapped %d, heap %d", pat, i, got[i], want[i])
			}
		}
		if gc, wc := mapped.Cardinality(pat), heap.Cardinality(pat); gc != wc {
			t.Fatalf("pattern %+v: mapped cardinality %d, heap %d", pat, gc, wc)
		}
	}

	// Spatial: same ids, candidates, geometries and selectivity.
	hGeoms := heap.GeomIDs()
	mGeoms := mapped.GeomIDs()
	if len(hGeoms) != len(mGeoms) {
		t.Fatalf("GeomIDs: mapped %d, heap %d", len(mGeoms), len(hGeoms))
	}
	for i := range hGeoms {
		if hGeoms[i] != mGeoms[i] {
			t.Fatalf("GeomIDs[%d]: mapped %d, heap %d", i, mGeoms[i], hGeoms[i])
		}
		hg, _ := heap.Geometry(hGeoms[i])
		mg, ok := mapped.Geometry(hGeoms[i])
		if !ok {
			t.Fatalf("Geometry(%d) missing on mapped", hGeoms[i])
		}
		if hg.Geom.Envelope() != mg.Geom.Envelope() {
			t.Fatalf("Geometry(%d) envelope mismatch", hGeoms[i])
		}
	}
	box := geo.Envelope{MinX: 20, MinY: 30, MaxX: 35, MaxY: 45}
	hc := heap.SpatialCandidates(box)
	mc := mapped.SpatialCandidates(box)
	if len(hc) != len(mc) {
		t.Fatalf("SpatialCandidates: mapped %d, heap %d", len(mc), len(hc))
	}
	if hs, ms := heap.SpatialSelectivity(box), mapped.SpatialSelectivity(box); hs != ms {
		t.Fatalf("SpatialSelectivity: mapped %v, heap %v", ms, hs)
	}

	// Planner statistics come straight from the stats section.
	hStats, mStats := heap.Stats(), mapped.Stats()
	if hStats.Triples != mStats.Triples || hStats.DistinctS != mStats.DistinctS ||
		hStats.DistinctP != mStats.DistinctP || hStats.DistinctO != mStats.DistinctO ||
		hStats.Geoms != mStats.Geoms || len(hStats.Pred) != len(mStats.Pred) {
		t.Fatalf("Stats mismatch: mapped %+v, heap %+v", mStats, hStats)
	}
	for id, want := range hStats.Pred {
		if got := mStats.Pred[id]; got != want {
			t.Fatalf("Pred[%d]: mapped %+v, heap %+v", id, got, want)
		}
	}
}

func TestRestorePackedServesInPlace(t *testing.T) {
	src := packedFixtureStore(200)
	r := packFixture(t, src, 7)
	st, err := RestorePacked(r)
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageMode() != "mapped" {
		t.Fatalf("StorageMode = %q, want mapped", st.StorageMode())
	}
	if st.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", st.Len(), src.Len())
	}
	if st.Version() != src.Version() {
		t.Fatalf("Version = %d, want %d", st.Version(), src.Version())
	}
	// Reads that must NOT materialise.
	typeID, err := st.LookupID(rdf.IRI(rdf.RDFType))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.LookupID(rdf.IRI("http://ex/missing")); err == nil {
		t.Fatal("LookupID hit for unknown term")
	}
	if got, want := st.Cardinality(TriplePattern{P: typeID}), src.Cardinality(TriplePattern{P: typeID}); got != want {
		t.Fatalf("Cardinality = %d, want %d", got, want)
	}
	stats := st.Stats()
	if stats.Triples != src.Len() || stats.Predicates == 0 || stats.SpatialLiterals == 0 {
		t.Fatalf("Stats = %+v", stats)
	}
	sn := st.Snapshot()
	if !sn.Mapped() {
		t.Fatal("Snapshot() of a packed store is not mapped")
	}
	if sn != st.Snapshot() {
		t.Fatal("mapped snapshot not cached")
	}
	rows := sn.MatchRows(TriplePattern{P: typeID}, nil)
	if len(rows) != 200 {
		t.Fatalf("MatchRows = %d rows, want 200", len(rows))
	}
	if st.StorageMode() != "mapped" {
		t.Fatal("reads materialised the store")
	}
	if st.ResidentEstimate() >= src.ResidentEstimate() {
		t.Fatalf("mapped resident estimate %d not below heap %d",
			st.ResidentEstimate(), src.ResidentEstimate())
	}

	// First mutation materialises; contents stay identical plus the new
	// triple, dictionary ids are preserved, and the pre-mutation mapped
	// snapshot keeps serving its old view.
	extra := rdf.NewTriple(rdf.IRI("http://ex/new"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0"))
	if !st.Add(extra) {
		t.Fatal("Add failed")
	}
	if st.StorageMode() != "heap" {
		t.Fatal("mutation did not materialise the store")
	}
	if st.Len() != src.Len()+1 {
		t.Fatalf("Len after add = %d", st.Len())
	}
	for id := uint64(1); id <= uint64(src.Dict().Len()); id++ {
		want, _ := src.Dict().Decode(id)
		got, ok := st.Dict().Decode(id)
		if !ok || got != want {
			t.Fatalf("id %d changed across materialisation: %v vs %v", id, got, want)
		}
	}
	if sn.NRows() != 200*3+20 {
		t.Fatal("old mapped snapshot changed size after materialisation")
	}
	sn2 := st.Snapshot()
	if sn2.Mapped() {
		t.Fatal("post-mutation snapshot still mapped")
	}
	if got := sn2.MatchRows(TriplePattern{P: typeID}, nil); len(got) != 201 {
		t.Fatalf("post-mutation MatchRows = %d rows, want 201", len(got))
	}
}

func TestRestorePackedRemoveAndSpatialToggle(t *testing.T) {
	src := packedFixtureStore(50)
	st, err := RestorePacked(packFixture(t, src, 3))
	if err != nil {
		t.Fatal(err)
	}
	victim := rdf.NewTriple(rdf.IRI("http://ex/s3"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class3"))
	if !st.Remove(victim) {
		t.Fatal("Remove on packed store failed")
	}
	if st.Len() != src.Len()-1 {
		t.Fatalf("Len = %d", st.Len())
	}

	st2, err := RestorePacked(packFixture(t, src, 3))
	if err != nil {
		t.Fatal(err)
	}
	st2.SetSpatialIndexEnabled(false)
	box := geo.Envelope{MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}
	if got, want := len(st2.SpatialCandidates(box)), len(src.SpatialCandidates(box)); got != want {
		t.Fatalf("scan-path candidates = %d, want %d", got, want)
	}
}

// TestMappedSnapshotConcurrent drives the lazy decode caches from many
// goroutines; run with -race to verify the lock-free paths.
func TestMappedSnapshotConcurrent(t *testing.T) {
	st := packedFixtureStore(300)
	heap := st.Snapshot()
	mapped := NewMappedSnapshot(packFixture(t, st, 9))
	typeID, _ := heap.Lookup(rdf.IRI(rdf.RDFType))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []int32
			for iter := 0; iter < 20; iter++ {
				rows := mapped.MatchRows(TriplePattern{P: typeID}, &buf)
				if len(rows) != 300 {
					t.Errorf("worker %d: %d rows", w, len(rows))
					return
				}
				for _, r := range rows[:10] {
					s, _, o := mapped.Row(r)
					if _, ok := mapped.DecodeTerm(s); !ok {
						t.Errorf("worker %d: DecodeTerm(%d) missing", w, s)
						return
					}
					if _, ok := mapped.DecodeTerm(o); !ok {
						t.Errorf("worker %d: DecodeTerm(%d) missing", w, o)
						return
					}
				}
				id := uint64(w*7+iter) % uint64(heap.dict.Len())
				if id > 0 {
					term, _ := mapped.DecodeTerm(id)
					if got, ok := mapped.Lookup(term); !ok || got != id {
						t.Errorf("worker %d: Lookup round-trip failed for id %d", w, id)
						return
					}
				}
				mapped.SpatialCandidates(geo.Envelope{MinX: 20, MinY: 30, MaxX: 40, MaxY: 50})
			}
		}(w)
	}
	wg.Wait()
}

// TestPackDataFromMapped re-packs a mapped snapshot and verifies the
// copy opens and matches — the path a replica would take if asked to
// checkpoint before any write.
func TestPackDataFromMapped(t *testing.T) {
	st := packedFixtureStore(120)
	mapped := NewMappedSnapshot(packFixture(t, st, 5))
	path := filepath.Join(t.TempDir(), "repack.pack")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colpack.Write(f, mapped.PackData(5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := colpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	again := NewMappedSnapshot(r2)
	if again.NRows() != mapped.NRows() {
		t.Fatalf("NRows = %d, want %d", again.NRows(), mapped.NRows())
	}
	for id := uint64(1); id <= uint64(st.Dict().Len()); id++ {
		a, _ := again.DecodeTerm(id)
		b, _ := mapped.DecodeTerm(id)
		if a != b {
			t.Fatalf("term %d mismatch after re-pack", id)
		}
	}
}
