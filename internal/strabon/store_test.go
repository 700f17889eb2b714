package strabon

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
)

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(rdf.IRI(s), rdf.IRI(p), rdf.IRI(o))
}

func TestAddRemoveLen(t *testing.T) {
	st := NewStore()
	if !st.Add(tr("s1", "p1", "o1")) {
		t.Fatal("first add")
	}
	if st.Add(tr("s1", "p1", "o1")) {
		t.Fatal("duplicate add")
	}
	st.Add(tr("s1", "p2", "o2"))
	if st.Len() != 2 {
		t.Fatalf("len = %d", st.Len())
	}
	if !st.Remove(tr("s1", "p1", "o1")) {
		t.Fatal("remove")
	}
	if st.Remove(tr("s1", "p1", "o1")) {
		t.Fatal("double remove")
	}
	if st.Remove(tr("ghost", "p", "o")) {
		t.Fatal("remove unknown")
	}
	if st.Len() != 1 {
		t.Fatalf("len after remove = %d", st.Len())
	}
}

// bruteMatch is the reference the Snapshot's matching is checked
// against: it scans the store's decoded triples and keeps, in row order,
// those whose bound components are the terms the pattern's ids decode to
// in sn. It shares no posting list or index with the Snapshot.
func bruteMatch(st *Store, sn *Snapshot, pat TriplePattern) []rdf.Triple {
	var want [3]*rdf.Term
	for c, id := range [3]uint64{pat.S, pat.P, pat.O} {
		if id != 0 {
			t, ok := sn.DecodeTerm(id)
			if !ok {
				return nil
			}
			want[c] = &t
		}
	}
	var out []rdf.Triple
	for _, t := range st.Triples() {
		if (want[0] == nil || *want[0] == t.S) && (want[1] == nil || *want[1] == t.P) && (want[2] == nil || *want[2] == t.O) {
			out = append(out, t)
		}
	}
	return out
}

// decodeRows decodes snapshot rows into triples.
func decodeRows(sn *Snapshot, rows []int32) []rdf.Triple {
	out := make([]rdf.Triple, 0, len(rows))
	for _, r := range rows {
		s, p, o := sn.Row(r)
		terms := sn.DecodeAll([]uint64{s, p, o}, make([]rdf.Term, 3))
		out = append(out, rdf.Triple{S: terms[0], P: terms[1], O: terms[2]})
	}
	return out
}

func TestMatchPatterns(t *testing.T) {
	st := NewStore()
	st.Add(tr("a", "type", "Hotspot"))
	st.Add(tr("b", "type", "Hotspot"))
	st.Add(tr("c", "type", "Town"))
	st.Add(tr("a", "conf", "high"))

	id := func(s string) uint64 {
		v, err := st.LookupID(rdf.IRI(s))
		if err != nil {
			t.Fatalf("lookup %s: %v", s, err)
		}
		return v
	}
	sn := st.Snapshot()
	// P+O bound.
	rows := sn.MatchRows(TriplePattern{P: id("type"), O: id("Hotspot")}, nil)
	if len(rows) != 2 {
		t.Fatalf("type=Hotspot rows = %d", len(rows))
	}
	// S bound.
	rows = sn.MatchRows(TriplePattern{S: id("a")}, nil)
	if len(rows) != 2 {
		t.Fatalf("S=a rows = %d", len(rows))
	}
	// All wild.
	rows = sn.MatchRows(TriplePattern{}, nil)
	if len(rows) != 4 {
		t.Fatalf("full scan rows = %d", len(rows))
	}
	// Fully bound.
	rows = sn.MatchRows(TriplePattern{S: id("c"), P: id("type"), O: id("Town")}, nil)
	if len(rows) != 1 {
		t.Fatalf("fully bound rows = %d", len(rows))
	}
	// No match.
	rows = sn.MatchRows(TriplePattern{S: id("c"), P: id("conf")}, nil)
	if len(rows) != 0 {
		t.Fatalf("no-match rows = %d", len(rows))
	}
	// Row decoding.
	rows = sn.MatchRows(TriplePattern{S: id("a"), P: id("conf")}, nil)
	if len(rows) != 1 {
		t.Fatalf("S=a P=conf rows = %d", len(rows))
	}
	s, p, o := sn.Row(rows[0])
	if s != id("a") || p != id("conf") || o == 0 {
		t.Fatal("Row")
	}
}

func TestMatchAfterRemove(t *testing.T) {
	st := NewStore()
	st.Add(tr("a", "p", "x"))
	st.Add(tr("b", "p", "x"))
	st.Remove(tr("a", "p", "x"))
	pID, _ := st.LookupID(rdf.IRI("p"))
	sn := st.Snapshot()
	rows := sn.MatchRows(TriplePattern{P: pID}, nil)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Full scan skips tombstones too.
	if got := sn.MatchRows(TriplePattern{}, nil); len(got) != 1 {
		t.Fatalf("scan rows = %d", len(got))
	}
}

func TestCardinality(t *testing.T) {
	st := NewStore()
	for i := 0; i < 10; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "common", "x"))
	}
	st.Add(tr("s0", "rare", "y"))
	common, _ := st.LookupID(rdf.IRI("common"))
	rare, _ := st.LookupID(rdf.IRI("rare"))
	sn := st.Snapshot()
	if sn.Cardinality(TriplePattern{P: common}) != 10 {
		t.Fatal("common cardinality")
	}
	if sn.Cardinality(TriplePattern{P: rare}) != 1 {
		t.Fatal("rare cardinality")
	}
	if sn.Cardinality(TriplePattern{}) != 11 {
		t.Fatal("full cardinality")
	}
	s0, _ := st.LookupID(rdf.IRI("s0"))
	// min(count(S), count(P)) bound.
	if got := sn.Cardinality(TriplePattern{S: s0, P: common}); got > 2 {
		t.Fatalf("bound cardinality = %d", got)
	}
}

func TestSpatialIndexing(t *testing.T) {
	st := NewStore()
	subj := rdf.IRI("http://ex/hotspot1")
	hasGeom := rdf.IRI("http://ex/hasGeometry")
	st.Add(rdf.NewTriple(subj, hasGeom, rdf.WKTLiteral("POINT (23.5 37.9)", 4326)))
	st.Add(rdf.NewTriple(rdf.IRI("http://ex/zone"), hasGeom,
		rdf.WKTLiteral("POLYGON ((24 38, 25 38, 25 39, 24 39, 24 38))", 4326)))
	// Non-spatial triple for contrast.
	st.Add(rdf.NewTriple(subj, rdf.IRI("http://ex/conf"), rdf.DoubleLiteral(0.9)))

	if st.Stats().SpatialLiterals != 2 {
		t.Fatalf("spatial literals = %d", st.Stats().SpatialLiterals)
	}
	// Box around the point finds only it.
	sn := st.Snapshot()
	ids := sn.SpatialCandidates(geo.Envelope{MinX: 23, MinY: 37, MaxX: 23.9, MaxY: 37.95})
	if len(ids) != 1 {
		t.Fatalf("candidates = %d", len(ids))
	}
	v, ok := sn.Geometry(ids[0])
	if !ok {
		t.Fatal("geometry cache")
	}
	if v.Geom.(geo.Point).X != 23.5 {
		t.Fatalf("geom = %v", v.Geom)
	}
}

func TestSpatialReprojection(t *testing.T) {
	st := NewStore()
	// A Web Mercator literal is indexed in WGS84.
	merc, err := geo.Transform(geo.Point{X: 23.5, Y: 37.9}, geo.SRIDWGS84, geo.SRIDWebMercator)
	if err != nil {
		t.Fatal(err)
	}
	lit := rdf.WKTLiteral(merc.WKT(), int(geo.SRIDWebMercator))
	st.Add(rdf.NewTriple(rdf.IRI("x"), rdf.IRI("geom"), lit))
	ids := st.Snapshot().SpatialCandidates(geo.Envelope{MinX: 23, MinY: 37, MaxX: 23.9, MaxY: 37.95})
	if len(ids) != 1 {
		t.Fatalf("reprojected candidates = %d", len(ids))
	}
}

func TestTriplesDecode(t *testing.T) {
	st := NewStore()
	in := []rdf.Triple{
		tr("a", "p", "b"),
		rdf.NewTriple(rdf.IRI("a"), rdf.IRI("label"), rdf.LangLiteral("άλφα", "el")),
	}
	st.AddAll(in)
	out := st.Triples()
	if len(out) != 2 {
		t.Fatalf("triples = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("triple %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestLoadNTriples(t *testing.T) {
	st := NewStore()
	src := `<http://ex/a> <http://ex/p> "v" .
<http://ex/b> <http://ex/p> "w" .
`
	n, err := st.LoadNTriples(strings.NewReader(src))
	if err != nil || n != 2 {
		t.Fatalf("loaded %d, %v", n, err)
	}
	if _, err := st.LoadNTriples(strings.NewReader("garbage")); err == nil {
		t.Fatal("bad input should error")
	}
}

func TestStats(t *testing.T) {
	st := NewStore()
	st.Add(tr("a", "p1", "x"))
	st.Add(tr("a", "p2", "y"))
	st.Add(rdf.NewTriple(rdf.IRI("a"), rdf.IRI("geom"), rdf.WKTLiteral("POINT (1 2)", 4326)))
	s := st.Stats()
	if s.Triples != 3 || s.Predicates != 3 || s.SpatialLiterals != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Terms < 6 {
		t.Fatalf("terms = %d", s.Terms)
	}
}

func TestLookupIDUnknown(t *testing.T) {
	st := NewStore()
	if _, err := st.LookupID(rdf.IRI("nope")); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestMatchRowsStableUnderConcurrentReads(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i%10), "p", fmt.Sprintf("o%d", i)))
	}
	pID, _ := st.LookupID(rdf.IRI("p"))
	done := make(chan []int32, 8)
	for g := 0; g < 8; g++ {
		go func() {
			done <- st.Snapshot().MatchRows(TriplePattern{P: pID}, nil)
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; !slices.Equal(got, first) {
			t.Fatal("concurrent reads disagree")
		}
	}
}
