package strabon

// Snapshot statistics tests live alongside the snapshot tests: the
// planner's estimates are only as good as these counts.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
)

func snapFixture() *Store {
	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI(rdf.RDFType),
			rdf.IRI("http://ex/Thing")))
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/val"),
			rdf.IntegerLiteral(int64(i))))
	}
	return st
}

func TestSnapshotCachedUntilMutation(t *testing.T) {
	st := snapFixture()
	s1 := st.Snapshot()
	s2 := st.Snapshot()
	if s1 != s2 {
		t.Fatal("snapshot not cached across reads of an unchanged store")
	}
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/new"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Thing")))
	s3 := st.Snapshot()
	if s3 == s1 {
		t.Fatal("snapshot not invalidated by a mutation")
	}
	if s3.NRows() != s1.NRows()+1 {
		t.Fatalf("rows: %d vs %d", s3.NRows(), s1.NRows())
	}
}

func TestSnapshotImmutableAfterRemove(t *testing.T) {
	st := snapFixture()
	sn := st.Snapshot()
	before := sn.NRows()
	tr := rdf.NewTriple(rdf.IRI("http://ex/s3"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Thing"))
	if !st.Remove(tr) {
		t.Fatal("remove failed")
	}
	st.Compact()
	if sn.NRows() != before {
		t.Fatal("snapshot mutated by Remove/Compact")
	}
	// The old snapshot still matches the removed triple.
	typeID, _ := sn.Lookup(rdf.IRI(rdf.RDFType))
	sID, _ := sn.Lookup(rdf.IRI("http://ex/s3"))
	rows := sn.MatchRows(TriplePattern{S: sID, P: typeID}, nil)
	if len(rows) != 1 {
		t.Fatalf("old snapshot lost the removed triple: %d rows", len(rows))
	}
	// A fresh snapshot does not.
	rows = st.Snapshot().MatchRows(TriplePattern{S: sID, P: typeID}, nil)
	if len(rows) != 0 {
		t.Fatalf("new snapshot still matches the removed triple: %d rows", len(rows))
	}
}

// TestSnapshotMatchRowsAgainstBruteForce checks MatchRows, over a full
// build and over a view with a delta, against a scan of the store's
// decoded triples.
func TestSnapshotMatchRowsAgainstBruteForce(t *testing.T) {
	st := snapFixture()
	for _, leg := range []string{"full build", "base+delta"} {
		if leg == "base+delta" {
			st.Add(rdf.NewTriple(rdf.IRI("http://ex/s10"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Thing")))
			st.Remove(rdf.NewTriple(rdf.IRI("http://ex/s3"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Thing")))
		}
		sn := st.Snapshot()
		if (sn.delta != nil) != (leg == "base+delta") {
			t.Fatalf("%s: view has delta=%v", leg, sn.delta != nil)
		}
		thingID, _ := sn.Lookup(rdf.IRI("http://ex/Thing"))
		typeID, _ := sn.Lookup(rdf.IRI(rdf.RDFType))
		s10, _ := sn.Lookup(rdf.IRI("http://ex/s10"))
		pats := []TriplePattern{
			{},                          // full scan
			{P: typeID},                 // single component
			{P: typeID, O: thingID},     // two components
			{S: s10},                    // only appended rows
			{S: 1, P: typeID, O: 99999}, // no match
		}
		var buf []int32
		for _, pat := range pats {
			got := decodeRows(sn, sn.MatchRows(pat, &buf))
			if want := bruteMatch(st, sn, pat); !slices.Equal(got, want) {
				t.Fatalf("%s, pattern %+v: snapshot %v, brute force %v", leg, pat, got, want)
			}
		}
	}
}

func TestSnapshotDecodeAll(t *testing.T) {
	st := snapFixture()
	sn := st.Snapshot()
	ids := []uint64{0, 1, 2, 1 << 62}
	out := make([]rdf.Term, len(ids))
	sn.DecodeAll(ids, out)
	if !out[0].IsZero() || !out[3].IsZero() {
		t.Fatal("unknown ids must decode to zero terms")
	}
	want, _ := sn.DecodeTerm(1)
	if out[1] != want {
		t.Fatalf("DecodeAll[1] = %v, want %v", out[1], want)
	}
}

// TestCompactPrunesStaleGeometries is the regression test for stale
// spatial entries: geometries of fully-deleted object ids must leave the
// store's geometry cache during Compact, and so the next view's R-tree.
func TestCompactPrunesStaleGeometries(t *testing.T) {
	st := NewStore()
	wkt := `POINT (23.5 37.5)`
	geomTerm := rdf.TypedLiteral(wkt, "http://strdf.di.uoa.gr/ontology#WKT")
	tr := rdf.NewTriple(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/geom"), geomTerm)
	st.Add(tr)
	keep := rdf.NewTriple(rdf.IRI("http://ex/k"), rdf.IRI("http://ex/geom"),
		rdf.TypedLiteral("POINT (24.5 38.5)", "http://strdf.di.uoa.gr/ontology#WKT"))
	st.Add(keep)
	box := geo.Envelope{MinX: 23, MinY: 37, MaxX: 24, MaxY: 38}
	if got := st.Snapshot().SpatialCandidates(box); len(got) != 1 {
		t.Fatalf("pre-delete candidates = %d", len(got))
	}
	if !st.Remove(tr) {
		t.Fatal("remove failed")
	}
	// Before Compact the stale geometry may linger; Compact must purge it.
	st.Compact()
	if got := st.Snapshot().SpatialCandidates(box); len(got) != 0 {
		t.Fatalf("stale spatial candidates after Compact: %v", got)
	}
	if st.Stats().SpatialLiterals != 1 {
		t.Fatalf("spatial literals = %d, want 1 (the kept geometry)", st.Stats().SpatialLiterals)
	}
	// The kept geometry must survive in the next view's R-tree.
	keepBox := geo.Envelope{MinX: 24, MinY: 38, MaxX: 25, MaxY: 39}
	if got := st.Snapshot().SpatialCandidates(keepBox); len(got) != 1 {
		t.Fatalf("kept geometry missing after Compact: %v", got)
	}
}

func TestAddAllBatchCount(t *testing.T) {
	st := NewStore()
	tr := func(i int) rdf.Triple {
		return rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/p"), rdf.IntegerLiteral(int64(i)))
	}
	batch := []rdf.Triple{tr(0), tr(1), tr(2), tr(1)} // one duplicate
	if n := st.AddAll(batch); n != 3 {
		t.Fatalf("AddAll = %d, want 3", n)
	}
	if n := st.AddAll(batch); n != 0 {
		t.Fatalf("second AddAll = %d, want 0", n)
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestRemoveSortedPostingLists(t *testing.T) {
	st := NewStore()
	subj := rdf.IRI("http://ex/s")
	var triples []rdf.Triple
	for i := 0; i < 100; i++ {
		triples = append(triples, rdf.NewTriple(subj, rdf.IRI("http://ex/p"), rdf.IntegerLiteral(int64(i))))
	}
	st.AddAll(triples)
	st.Snapshot()
	// Remove from the middle, the front, and the back; matches must stay
	// exact (the view filters its base's sorted posting list).
	for _, i := range []int{50, 0, 99, 25, 75} {
		if !st.Remove(triples[i]) {
			t.Fatalf("remove %d failed", i)
		}
	}
	sID, _ := st.LookupID(subj)
	if got := len(st.Snapshot().MatchRows(TriplePattern{S: sID}, nil)); got != 95 {
		t.Fatalf("matches after removals = %d, want 95", got)
	}
	if st.Len() != 95 {
		t.Fatalf("Len = %d", st.Len())
	}
}

// TestSnapshotStats pins the planner statistics: per-predicate counts,
// distinct subject/object counts, global distincts, and lazy caching.
func TestSnapshotStats(t *testing.T) {
	st := NewStore()
	// 6 subjects typed Thing (one type object), 3 with val (distinct
	// objects), plus one subject linking to two others.
	for i := 0; i < 6; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI(rdf.RDFType),
			rdf.IRI("http://ex/Thing")))
	}
	for i := 0; i < 3; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/val"),
			rdf.IntegerLiteral(int64(i))))
	}
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/s0"), rdf.IRI("http://ex/link"), rdf.IRI("http://ex/s1")))
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/s0"), rdf.IRI("http://ex/link"), rdf.IRI("http://ex/s2")))

	sn := st.Snapshot()
	stats := sn.Stats()
	if stats.Triples != 11 {
		t.Fatalf("Triples = %d, want 11", stats.Triples)
	}
	if stats.DistinctS != 6 || stats.DistinctP != 3 {
		t.Fatalf("DistinctS/P = %d/%d, want 6/3", stats.DistinctS, stats.DistinctP)
	}
	typeID, _ := st.LookupID(rdf.IRI(rdf.RDFType))
	valID, _ := st.LookupID(rdf.IRI("http://ex/val"))
	linkID, _ := st.LookupID(rdf.IRI("http://ex/link"))
	if ps := stats.Pred[typeID]; ps.Count != 6 || ps.DistinctS != 6 || ps.DistinctO != 1 {
		t.Fatalf("rdf:type stats = %+v, want {6 6 1}", ps)
	}
	if ps := stats.Pred[valID]; ps.Count != 3 || ps.DistinctS != 3 || ps.DistinctO != 3 {
		t.Fatalf("val stats = %+v, want {3 3 3}", ps)
	}
	if ps := stats.Pred[linkID]; ps.Count != 2 || ps.DistinctS != 1 || ps.DistinctO != 2 {
		t.Fatalf("link stats = %+v, want {2 1 2}", ps)
	}
	if again := sn.Stats(); again != stats {
		t.Fatal("Stats not cached per snapshot")
	}
	// A mutation yields a fresh snapshot with fresh statistics.
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/s7"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Thing")))
	if st.Snapshot().Stats().Triples != 12 {
		t.Fatal("stats not rebuilt after mutation")
	}
}

// TestSpatialSelectivity: the R-tree-backed fraction matches the
// candidate count over the geometry population.
func TestSpatialSelectivity(t *testing.T) {
	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/geom"),
			rdf.TypedLiteral(fmt.Sprintf("POINT (%d.5 37.5)", 20+i),
				"http://strdf.di.uoa.gr/ontology#WKT")))
	}
	sn := st.Snapshot()
	// Window covering 3 of the 10 points (x in 20.5, 21.5, 22.5).
	sel := sn.SpatialSelectivity(geo.Envelope{MinX: 20, MinY: 37, MaxX: 23, MaxY: 38})
	if sel < 0.29 || sel > 0.31 {
		t.Fatalf("selectivity = %v, want 0.3", sel)
	}
	if all := sn.SpatialSelectivity(geo.Envelope{MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}); all != 1 {
		t.Fatalf("full-window selectivity = %v, want 1", all)
	}
	empty := NewStore().Snapshot()
	if sel := empty.SpatialSelectivity(geo.Envelope{MaxX: 1, MaxY: 1}); sel != 0 {
		t.Fatalf("empty-store selectivity = %v, want 0", sel)
	}
}
