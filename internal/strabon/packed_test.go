package strabon

// Mapped-snapshot tests: a Snapshot backed by a packed snapshot file
// must be observationally identical to the store view it was
// written from, and a RestorePacked store must answer reads in place
// and keep its writes in a delta over the file.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/colpack"
	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// packFixture writes the image of st's fold, labelled seq, as a packed
// file — what a checkpoint labelled seq writes — and opens it. The reader
// is closed with the test.
func packFixture(t *testing.T, st *Store, seq uint64) *colpack.Reader {
	t.Helper()
	img, got := st.Fold(seq).Image()
	if got != seq {
		t.Fatalf("fold image labelled %d, want %d", got, seq)
	}
	path := filepath.Join(t.TempDir(), "snap.pack")
	if err := os.WriteFile(path, img, 0o644); err != nil {
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

	// Both views' bases are images; only the restored file is Mapped, a
	// written store's fold never is.
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
	nTerms := uint64(st.Stats().Terms)
	ids := []uint64{0, 1, 2, 3, nTerms, nTerms + 1, 1 << 40}
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
	for id := uint64(1); id <= nTerms; id++ {
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

	// MatchRows agrees with a scan of the source store's triples, and with
	// the heap view row for row, across pattern shapes; Cardinality agrees
	// with the heap view.
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
		if g, w := decodeRows(mapped, got), bruteMatch(st, heap, pat); !slices.Equal(g, w) {
			t.Fatalf("pattern %+v: mapped %v, brute force %v", pat, g, w)
		}
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
	sn := st.Snapshot()
	if got, want := sn.Cardinality(TriplePattern{P: typeID}), len(bruteMatch(src, sn, TriplePattern{P: typeID})); got != want {
		t.Fatalf("Cardinality = %d, want %d", got, want)
	}
	stats := st.Stats()
	if want := src.Stats(); stats != want || stats.Predicates != 4 {
		t.Fatalf("Stats = %+v, want %+v", stats, want)
	}
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

	// A mutation goes to the delta over the file: the store stays mapped,
	// contents stay identical plus the new triple, dictionary ids are
	// preserved, and the pre-mutation mapped snapshot keeps serving its
	// old view.
	extra := rdf.NewTriple(rdf.IRI("http://ex/new"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0"))
	if !st.Add(extra) {
		t.Fatal("Add failed")
	}
	if st.StorageMode() != "mapped" {
		t.Fatalf("after a write StorageMode = %q, want mapped", st.StorageMode())
	}
	if st.Len() != src.Len()+1 {
		t.Fatalf("Len after add = %d", st.Len())
	}
	if got := st.Stats().Predicates; got != 4 {
		t.Fatalf("Stats().Predicates after a write = %d, want 4", got)
	}
	srcSn, stSn := src.Snapshot(), st.Snapshot()
	for id := uint64(1); id <= uint64(src.Stats().Terms); id++ {
		want, _ := srcSn.DecodeTerm(id)
		got, ok := stSn.DecodeTerm(id)
		if !ok || got != want {
			t.Fatalf("id %d changed across a write: %v vs %v", id, got, want)
		}
	}
	if sn.NRows() != 200*3+20 {
		t.Fatal("old mapped snapshot changed size after a write")
	}
	sn2 := st.Snapshot()
	if sn2.Mapped() {
		t.Fatal("post-mutation snapshot still mapped")
	}
	if got := sn2.MatchRows(TriplePattern{P: typeID}, nil); len(got) != 201 {
		t.Fatalf("post-mutation MatchRows = %d rows, want 201", len(got))
	}
}

// TestReadsNeverMaterialise pins the one-read-path rule: every read of
// a mapped store is served from the mapping, and so is every read after
// a write — writes go to a delta, the base stays the file.
func TestReadsNeverMaterialise(t *testing.T) {
	src := packedFixtureStore(100)
	st, err := RestorePacked(packFixture(t, src, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sn := st.Snapshot(); !sn.Mapped() || sn.NRows() != src.Len() {
		t.Fatalf("Snapshot: mapped=%v rows=%d", sn.Mapped(), sn.NRows())
	}
	if got, want := st.Triples(), src.Triples(); !slices.Equal(got, want) {
		t.Fatalf("Triples: %d triples, want %d", len(got), len(want))
	}
	if got, want := st.Stats(), src.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if st.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", st.Len(), src.Len())
	}
	if _, err := st.LookupID(rdf.IRI("http://ex/s7")); err != nil {
		t.Fatal(err)
	}
	if mode := st.StorageMode(); mode != "mapped" {
		t.Fatalf("after reads StorageMode = %q, want mapped", mode)
	}
	if !st.Add(rdf.NewTriple(rdf.IRI("http://ex/new"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0"))) {
		t.Fatal("Add failed")
	}
	if mode := st.StorageMode(); mode != "mapped" {
		t.Fatalf("after a write StorageMode = %q, want mapped", mode)
	}
	// The first fold replaces the file with an image built in memory.
	if st.Fold(5); st.StorageMode() != "image" {
		t.Fatalf("after a fold StorageMode = %q, want image", st.StorageMode())
	}
}

// TestRestorePackedRemoveAndSpatial: a Remove of a base row is a
// tombstone over the mapped file; spatial candidates served from the
// mapped file's R-tree match a scan of the source's spatial literals.
func TestRestorePackedRemoveAndSpatial(t *testing.T) {
	src := packedFixtureStore(50)
	st, err := RestorePacked(packFixture(t, src, 3))
	if err != nil {
		t.Fatal(err)
	}
	victim := rdf.NewTriple(rdf.IRI("http://ex/s3"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class3"))
	if !st.Remove(victim) {
		t.Fatal("Remove on packed store failed")
	}
	if st.Len() != src.Len()-1 || st.StorageMode() != "mapped" {
		t.Fatalf("Len = %d, mode %q", st.Len(), st.StorageMode())
	}
	if st.Remove(victim) {
		t.Fatal("a removed base row was removed twice")
	}

	st2, err := RestorePacked(packFixture(t, src, 3))
	if err != nil {
		t.Fatal(err)
	}
	box := geo.Envelope{MinX: 25, MinY: 30, MaxX: 40, MaxY: 45}
	want := 0
	for _, tr := range src.Triples() {
		if v, err := strdf.ParseSpatial(tr.O); err == nil && v.Geom.Envelope().Intersects(box) {
			want++
		}
	}
	if got := len(st2.Snapshot().SpatialCandidates(box)); got != want || want == 0 {
		t.Fatalf("candidates = %d, want %d (non-zero)", got, want)
	}
	if st2.StorageMode() != "mapped" {
		t.Fatal("a spatial read materialised the store")
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
				id := uint64(w*7+iter) % uint64(st.Stats().Terms)
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

// TestMappedImageIsTheFile: the image of a mapped snapshot is the file
// it was restored from, byte for byte, so a store asked to checkpoint
// before any write rewrites exactly that file.
func TestMappedImageIsTheFile(t *testing.T) {
	st := packedFixtureStore(120)
	r := packFixture(t, st, 5)
	mapped := NewMappedSnapshot(r)
	img, seq := mapped.Image()
	if seq != 5 {
		t.Fatalf("image seq = %d, want 5", seq)
	}
	want, _ := st.Fold(5).Image()
	if !bytes.Equal(img, want) {
		t.Fatal("mapped image differs from the file it was restored from")
	}
	r2, err := colpack.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	again := NewMappedSnapshot(r2)
	if again.NRows() != mapped.NRows() {
		t.Fatalf("NRows = %d, want %d", again.NRows(), mapped.NRows())
	}
	for id := uint64(1); id <= uint64(st.Stats().Terms); id++ {
		a, _ := again.DecodeTerm(id)
		b, _ := mapped.DecodeTerm(id)
		if a != b {
			t.Fatalf("term %d mismatch after reopening the image", id)
		}
	}
}

// legacyEmptyPointImage holds POINT EMPTY, POINT (20 38) and a polygon
// at (21 39) as written by a build that stored the empty point's
// envelope as a box of NaNs.
const legacyEmptyPointImage = "testdata/point-empty-nan.pack"

// TestOpenLegacyEmptyPointImage: over an image that stores a NaN box
// for POINT EMPTY, the empty point reads the empty envelope and a
// window finds the other two geometries, which an R-tree built over the
// NaN box would lose.
func TestOpenLegacyEmptyPointImage(t *testing.T) {
	r, err := colpack.Open(legacyEmptyPointImage)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	sn := NewMappedSnapshot(r)
	id := func(lex string) uint64 {
		id, ok := sn.Lookup(rdf.TypedLiteral(lex, rdf.StRDFWKT))
		if !ok {
			t.Fatalf("%s is not in the image", lex)
		}
		return id
	}
	a, b := id("POINT (20 38)"), id("POLYGON ((21 39, 21.1 39, 21.1 39.1, 21 39.1, 21 39))")
	empty := id("POINT EMPTY")
	if env, ok := sn.GeomEnvelope(empty); !ok || !env.IsEmpty() {
		t.Errorf("POINT EMPTY's envelope = %v, %v; want the empty envelope", env, ok)
	}
	got := sn.SpatialCandidates(geo.Envelope{MinX: 19, MinY: 37, MaxX: 22, MaxY: 40})
	slices.Sort(got)
	if want := []uint64{min(a, b), max(a, b)}; !slices.Equal(got, want) {
		t.Errorf("window candidates = %v, want %v", got, want)
	}
}
