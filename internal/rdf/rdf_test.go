package rdf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	iri := IRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatal("IRI kind")
	}
	b := Blank("n1")
	if !b.IsBlank() {
		t.Fatal("blank kind")
	}
	l := Literal("hello")
	if !l.IsLiteral() || l.Datatype != "" {
		t.Fatal("plain literal")
	}
	if IntegerLiteral(42).Value != "42" || IntegerLiteral(42).Datatype != XSDInteger {
		t.Fatal("integer literal")
	}
	if BooleanLiteral(true).Value != "true" {
		t.Fatal("bool literal")
	}
	if DoubleLiteral(2.5).Datatype != XSDDouble {
		t.Fatal("double literal")
	}
	var zero Term
	if !zero.IsZero() {
		t.Fatal("zero term")
	}
}

func TestWKTLiteral(t *testing.T) {
	w := WKTLiteral("POINT(23.5 37.9)", 4326)
	if !w.IsSpatial() {
		t.Fatal("WKT literal should be spatial")
	}
	if w.Value != "POINT(23.5 37.9);4326" {
		t.Fatalf("value = %q", w.Value)
	}
	noSRID := WKTLiteral("POINT(1 2)", 0)
	if noSRID.Value != "POINT(1 2)" {
		t.Fatalf("value = %q", noSRID.Value)
	}
	gml := TypedLiteral("<gml:Point/>", StRDFGML)
	if !gml.IsSpatial() {
		t.Fatal("GML literal should be spatial")
	}
	geosparql := TypedLiteral("POINT(1 2)", GeoSPARQLWKT)
	if !geosparql.IsSpatial() {
		t.Fatal("GeoSPARQL wktLiteral should be spatial")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{IRI("http://a/b"), "<http://a/b>"},
		{Blank("x"), "_:x"},
		{Literal("hi"), `"hi"`},
		{LangLiteral("hi", "en"), `"hi"@en`},
		{TypedLiteral("5", XSDInteger), `"5"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{Literal("a\"b\nc\\d"), `"a\"b\nc\\d"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	triples := []Triple{
		NewTriple(IRI("http://ex/s"), IRI("http://ex/p"), IRI("http://ex/o")),
		NewTriple(IRI("http://ex/s"), IRI("http://ex/p"), Literal("plain")),
		NewTriple(IRI("http://ex/s"), IRI("http://ex/p"), LangLiteral("γεια", "el")),
		NewTriple(IRI("http://ex/s"), IRI("http://ex/p"), TypedLiteral("12", XSDInteger)),
		NewTriple(Blank("b0"), IRI("http://ex/p"), WKTLiteral("POINT(23 37)", 4326)),
		NewTriple(IRI("http://ex/s"), IRI("http://ex/p"), Literal("line1\nline2\t\"q\"")),
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	got, err := ParseNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(triples) {
		t.Fatalf("count = %d, want %d", len(got), len(triples))
	}
	for i := range triples {
		if got[i] != triples[i] {
			t.Errorf("triple %d: %v != %v", i, got[i], triples[i])
		}
	}
}

func TestNTriplesCommentsAndBlanks(t *testing.T) {
	src := `# a comment

<http://ex/s> <http://ex/p> "v" .
# another
`
	got, err := ParseNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("count = %d", len(got))
	}
}

func TestNTriplesErrors(t *testing.T) {
	for _, src := range []string{
		`<http://ex/s> <http://ex/p> "v"`,              // no dot
		`"lit" <http://ex/p> "v" .`,                    // literal subject
		`<http://ex/s> _:b "v" .`,                      // blank predicate
		`<http://ex/s> <http://ex/p> "open .`,          // unterminated literal
		`<http://ex/s> <http://ex/p> <unclosed .`,      // unterminated IRI
		`<http://ex/s> <http://ex/p> "v" . extra`,      // trailing garbage
		`<http://ex/s> <http://ex/p> "bad\q" .`,        // bad escape
		`<http://ex/s> <http://ex/p> "v"^^"notiri" .`,  // datatype not IRI
		`<http://ex/s> <http://ex/p> "v"@ .`,           // empty lang
		`<http://ex/s> <http://ex/p> "v" ^ extra . x.`, // junk
	} {
		if _, err := ParseNTriples(strings.NewReader(src)); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", src)
		}
	}
}

func TestNTriplesUnicodeEscape(t *testing.T) {
	src := `<http://ex/s> <http://ex/p> "café" .`
	got, err := ParseNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].O.Value != "café" {
		t.Fatalf("value = %q", got[0].O.Value)
	}
}

func TestDictionaryEncodeDecode(t *testing.T) {
	d := NewDictionary()
	a := IRI("http://ex/a")
	b := Literal("b")
	idA := d.Encode(a)
	idB := d.Encode(b)
	if idA == 0 || idB == 0 {
		t.Fatal("ID 0 is reserved")
	}
	if idA == idB {
		t.Fatal("distinct terms, same ID")
	}
	if again := d.Encode(a); again != idA {
		t.Fatal("re-encode changed ID")
	}
	got, ok := d.Decode(idA)
	if !ok || got != a {
		t.Fatalf("Decode = %v, %v", got, ok)
	}
	if _, ok := d.Decode(0); ok {
		t.Fatal("Decode(0) should fail")
	}
	if _, ok := d.Decode(999); ok {
		t.Fatal("Decode(unknown) should fail")
	}
	if id, ok := d.Lookup(a); !ok || id != idA {
		t.Fatal("Lookup")
	}
	if _, ok := d.Lookup(IRI("http://ex/missing")); ok {
		t.Fatal("Lookup missing")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// TestDictionaryTermsInIDOrder: Terms lists every term in id order, and
// encoding that list into a fresh dictionary reproduces every id — how a
// fold carries a store's terms into its image and how the terms written
// during a fold are renumbered after it.
func TestDictionaryTermsInIDOrder(t *testing.T) {
	d := NewDictionary()
	terms := []Term{
		IRI("http://ex/a"),
		Literal("plain"),
		LangLiteral("x", "en"),
		TypedLiteral("5", XSDInteger),
		WKTLiteral("POINT(1 2)", 4326),
		Blank("node1"),
	}
	ids := make([]uint64, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
	}
	listed := d.Terms()
	d.Encode(IRI("http://ex/later")) // must not show through listed
	if len(listed) != len(terms) {
		t.Fatalf("Terms() has %d terms, want %d", len(listed), len(terms))
	}
	d2 := NewDictionary()
	for _, tm := range listed {
		d2.Encode(tm)
	}
	for i, tm := range terms {
		if got, ok := d2.Decode(ids[i]); !ok || got != tm {
			t.Errorf("Decode(%d) = %v, want %v", ids[i], got, tm)
		}
	}
}

func TestDictionaryConcurrentEncode(t *testing.T) {
	d := NewDictionary()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				d.Encode(IRI(strings.Repeat("x", i%7) + "shared"))
				d.Encode(IntegerLiteral(int64(i)))
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	// "shared"-suffixed IRIs: 7 distinct; integers: 200 distinct.
	if d.Len() != 207 {
		t.Fatalf("Len = %d, want 207", d.Len())
	}
}

func TestNTriplesPropertyRoundTrip(t *testing.T) {
	f := func(s, o string) bool {
		tr := NewTriple(IRI("http://ex/"+sanitize(s)), IRI("http://ex/p"), Literal(o))
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, []Triple{tr}); err != nil {
			return false
		}
		got, err := ParseNTriples(&buf)
		return err == nil && len(got) == 1 && got[0] == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitize strips characters not legal inside an IRI ref for the property
// test (the writer does not escape IRIs, matching N-Triples which forbids
// them).
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r != '<' && r != '>' && r != '"' && r != '\\' && r < 0x7f {
			b.WriteRune(r)
		}
	}
	return b.String()
}
