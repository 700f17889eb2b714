package strabon

import (
	"fmt"
	"sort"
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
	// P+O bound.
	rows := st.MatchIDs(TriplePattern{P: id("type"), O: id("Hotspot")})
	if len(rows) != 2 {
		t.Fatalf("type=Hotspot rows = %d", len(rows))
	}
	// S bound.
	rows = st.MatchIDs(TriplePattern{S: id("a")})
	if len(rows) != 2 {
		t.Fatalf("S=a rows = %d", len(rows))
	}
	// All wild.
	rows = st.MatchIDs(TriplePattern{})
	if len(rows) != 4 {
		t.Fatalf("full scan rows = %d", len(rows))
	}
	// Fully bound.
	rows = st.MatchIDs(TriplePattern{S: id("c"), P: id("type"), O: id("Town")})
	if len(rows) != 1 {
		t.Fatalf("fully bound rows = %d", len(rows))
	}
	// No match.
	rows = st.MatchIDs(TriplePattern{S: id("c"), P: id("conf")})
	if len(rows) != 0 {
		t.Fatalf("no-match rows = %d", len(rows))
	}
	// Row decoding.
	s, p, o := st.Row(rows0(t, st, TriplePattern{S: id("a"), P: id("conf")}))
	if s != id("a") || p != id("conf") || o == 0 {
		t.Fatal("Row")
	}
}

func rows0(t *testing.T, st *Store, pat TriplePattern) int {
	t.Helper()
	rows := st.MatchIDs(pat)
	if len(rows) == 0 {
		t.Fatal("expected at least one row")
	}
	return rows[0]
}

func TestMatchAfterRemove(t *testing.T) {
	st := NewStore()
	st.Add(tr("a", "p", "x"))
	st.Add(tr("b", "p", "x"))
	st.Remove(tr("a", "p", "x"))
	pID, _ := st.LookupID(rdf.IRI("p"))
	rows := st.MatchIDs(TriplePattern{P: pID})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Full scan skips tombstones too.
	if got := st.MatchIDs(TriplePattern{}); len(got) != 1 {
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
	if st.Cardinality(TriplePattern{P: common}) != 10 {
		t.Fatal("common cardinality")
	}
	if st.Cardinality(TriplePattern{P: rare}) != 1 {
		t.Fatal("rare cardinality")
	}
	if st.Cardinality(TriplePattern{}) != 11 {
		t.Fatal("full cardinality")
	}
	s0, _ := st.LookupID(rdf.IRI("s0"))
	// min(byS, byP) bound.
	if got := st.Cardinality(TriplePattern{S: s0, P: common}); got > 2 {
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
	ids := st.SpatialCandidates(geo.Envelope{MinX: 23, MinY: 37, MaxX: 23.9, MaxY: 37.95})
	if len(ids) != 1 {
		t.Fatalf("candidates = %d", len(ids))
	}
	v, ok := st.Geometry(ids[0])
	if !ok {
		t.Fatal("geometry cache")
	}
	if v.Geom.(geo.Point).X != 23.5 {
		t.Fatalf("geom = %v", v.Geom)
	}
	// Disabled index gives the same answer via scan.
	st.SetSpatialIndexEnabled(false)
	scan := st.SpatialCandidates(geo.Envelope{MinX: 23, MinY: 37, MaxX: 23.9, MaxY: 37.95})
	if len(scan) != 1 || scan[0] != ids[0] {
		t.Fatalf("scan candidates = %v", scan)
	}
}

func TestSpatialReprojection(t *testing.T) {
	st := NewStore()
	// A Web Mercator literal is indexed in WGS84.
	merc, err := geo.Transform(geo.NewPoint(23.5, 37.9), geo.SRIDWGS84, geo.SRIDWebMercator)
	if err != nil {
		t.Fatal(err)
	}
	lit := rdf.WKTLiteral(merc.WKT(), int(geo.SRIDWebMercator))
	st.Add(rdf.NewTriple(rdf.IRI("x"), rdf.IRI("geom"), lit))
	ids := st.SpatialCandidates(geo.Envelope{MinX: 23, MinY: 37, MaxX: 23.9, MaxY: 37.95})
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

func TestMatchIDsStableUnderConcurrentReads(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i%10), "p", fmt.Sprintf("o%d", i)))
	}
	pID, _ := st.LookupID(rdf.IRI("p"))
	done := make(chan []int, 8)
	for g := 0; g < 8; g++ {
		go func() {
			rows := st.MatchIDs(TriplePattern{P: pID})
			sort.Ints(rows)
			done <- rows
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		got := <-done
		if len(got) != len(first) {
			t.Fatal("concurrent reads disagree")
		}
	}
}
