package strabon

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

func persistTriple(i int) rdf.Triple {
	return rdf.NewTriple(
		rdf.IRI(fmt.Sprintf("http://example.org/s%d", i)),
		rdf.IRI("http://example.org/p"),
		rdf.IntegerLiteral(int64(i)))
}

// TestPackedRoundtripEscapesAndSpatial runs the literal roundtrip matrix
// — quotes, newlines, tabs, backslash-u sequences and non-ASCII, plus
// spatial literals — through the packed snapshot: dictionary ids,
// Version() semantics and the geometry cache must all survive
// a fold's image and RestorePacked.
func TestPackedRoundtripEscapesAndSpatial(t *testing.T) {
	st := NewStore()
	s := rdf.IRI("http://example.org/subject")
	p := rdf.IRI("http://example.org/label")
	gnarly := []rdf.Term{
		rdf.Literal(`plain`),
		rdf.Literal(`has "double quotes" inside`),
		rdf.Literal("line one\nline two\r\nline three"),
		rdf.Literal("tab\tseparated"),
		rdf.Literal(`backslash \ and \u sequence literal ☃`),
		rdf.Literal("actual snowman ☃ and accents éü"),
		rdf.LangLiteral("bonjour \"le\" monde\n", "fr"),
		rdf.TypedLiteral("42", rdf.XSDInteger),
	}
	spatial := []rdf.Term{
		rdf.TypedLiteral("POINT (23.7 37.9)", rdf.StRDFWKT),
		rdf.TypedLiteral("POLYGON ((23 37, 24 37, 24 38, 23 37))", rdf.StRDFWKT),
	}
	// GML literals are spatial but undecodable (strdf parses WKT only):
	// they must round-trip byte-exactly without entering the cache.
	gnarly = append(gnarly, rdf.TypedLiteral("<gml:Point><gml:pos>37.9 23.7</gml:pos></gml:Point>", rdf.StRDFGML))
	for _, o := range append(append([]rdf.Term{}, gnarly...), spatial...) {
		if !st.Add(rdf.NewTriple(s, p, o)) {
			t.Fatalf("duplicate add of %s", o)
		}
	}

	wantIDs := map[string]uint64{}
	for _, o := range append(append([]rdf.Term{}, gnarly...), spatial...) {
		id, err := st.LookupID(o)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs[o.String()] = id
	}

	got, err := RestorePacked(packFixture(t, st, 1))
	if err != nil {
		t.Fatal(err)
	}

	if got.Len() != st.Len() {
		t.Fatalf("loaded %d triples, want %d", got.Len(), st.Len())
	}
	// Every literal must round-trip byte-exactly with its original id
	// (the packed dictionary pins id assignment).
	for _, o := range append(append([]rdf.Term{}, gnarly...), spatial...) {
		id, err := got.LookupID(o)
		if err != nil {
			t.Fatalf("literal lost in roundtrip: %s (%v)", o, err)
		}
		if id != wantIDs[o.String()] {
			t.Errorf("%s: id %d after load, want %d", o, id, wantIDs[o.String()])
		}
		back, ok := got.Snapshot().DecodeTerm(id)
		if !ok || back != o {
			t.Errorf("decode(%d) = %+v, want %+v", id, back, o)
		}
	}
	// The geometry cache must be rebuilt for every spatial literal.
	for _, o := range spatial {
		id, _ := got.LookupID(o)
		if _, ok := got.Snapshot().Geometry(id); !ok {
			t.Errorf("geometry cache missing for %s", o)
		}
	}
	// Version() semantics: a loaded store reports a nonzero version (it
	// was populated by mutations), version is stable across reads, and
	// moves on the next mutation.
	v := got.Version()
	if v == 0 {
		t.Fatal("loaded store reports version 0")
	}
	if got.Version() != v {
		t.Fatal("Version() not stable across reads")
	}
	got.Add(persistTriple(999))
	if got.Version() <= v {
		t.Fatalf("version did not advance on mutation: %d -> %d", v, got.Version())
	}
	// And a second roundtrip of the restored (now mutated) store is stable.
	again, err := RestorePacked(packFixture(t, got, 2))
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != got.Len() {
		t.Fatalf("second roundtrip: %d triples, want %d", again.Len(), got.Len())
	}
}
