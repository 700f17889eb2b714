package stsparql

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/strdf"
)

// comparisonTerms are the terms whose pairwise orders differ between a
// value order and a lexical one: three spellings of ten, ten as a string
// and with a language tag, one instant written in two time zones'
// lexical orders the other way round, and an IRI and a WKT literal.
func comparisonTerms() []rdf.Term {
	return []rdf.Term{
		rdf.TypedLiteral("10", rdf.XSDInteger),
		rdf.TypedLiteral("010", rdf.XSDInteger),
		rdf.TypedLiteral("1e1", rdf.XSDDouble),
		rdf.Literal("10"),
		rdf.LangLiteral("10", "en"),
		rdf.TypedLiteral("2012-01-01T01:00:00+02:00", rdf.XSDDateTime),
		rdf.TypedLiteral("2011-12-31T23:30:00Z", rdf.XSDDateTime),
		rdf.IRI("http://ex/ten"),
		strdf.Literal(geo.Point{X: 10, Y: 10}, geo.SRIDWGS84),
	}
}

// TestCompiledComparisonMatchesEvalFilter pins the compiled ?v OP literal
// filter to the generic evaluator: for every row term (stored, computed
// by BIND with an extra id, or unbound), operator, constant and operand
// order, the compiled closure keeps exactly the rows evalFilter keeps.
func TestCompiledComparisonMatchesEvalFilter(t *testing.T) {
	terms := comparisonTerms()
	st := strabon.NewStore()
	for i, tm := range terms {
		st.Add(rdf.NewTriple(rdf.IRI("http://ex/s"+itoa(i)), rdf.IRI("http://ex/p"), tm))
	}
	e := New(st)
	v := newVexec(context.Background(), e)
	v.addSlot("v")
	computed := rdf.TypedLiteral("9.5", rdf.XSDDecimal)
	rowTerms := append(append([]rdf.Term{}, terms...), computed)
	// Every row twice in a row, since a compiled comparison reuses the
	// previous row's answer for a repeated id; unbound rows first and last.
	tb := &vtable{width: 1}
	tb.append([]uint64{0}, 0)
	for i, tm := range rowTerms {
		id := v.idOf(tm)
		if (i < len(terms)) == (id&extraBit != 0) {
			t.Fatalf("%s got id %#x", tm, id)
		}
		tb.append([]uint64{id}, int32(i))
		tb.append([]uint64{id}, int32(i))
	}
	tb.append([]uint64{0}, int32(len(rowTerms)))
	constants := append(append([]rdf.Term{}, terms...), computed)

	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, c := range constants {
			for _, flipped := range []bool{false, true} {
				ex := &EBinary{Op: op, Left: &EVar{Name: "v"}, Right: &ELit{Term: c}}
				if flipped {
					ex = &EBinary{Op: op, Left: &ELit{Term: c}, Right: &EVar{Name: "v"}}
				}
				checkCompiled(t, e, v, ex, tb)
			}
		}
	}
	// Conjunctions of compiled comparisons compile too.
	for _, lo := range constants {
		for _, hi := range constants {
			ex := &EBinary{Op: "&&",
				Left:  &EBinary{Op: ">=", Left: &EVar{Name: "v"}, Right: &ELit{Term: lo}},
				Right: &EBinary{Op: "<", Left: &ELit{Term: hi}, Right: &EVar{Name: "v"}}}
			checkCompiled(t, e, v, ex, tb)
		}
	}
}

func checkCompiled(t *testing.T, e *Engine, v *vexec, ex Expression, tb *vtable) {
	t.Helper()
	fast := v.compileFastFilter(ex)
	if fast == nil {
		t.Fatalf("%s did not compile", exprString(ex))
	}
	for r := 0; r < tb.n(); r++ {
		b := Binding{}
		if tm, ok := v.term(tb.get(r, 0)); ok {
			b["v"] = tm
		}
		want, err := e.evalFilter(ex, b)
		if err != nil {
			t.Fatal(err)
		}
		got, handled := fast(tb, r)
		if !handled || got != want {
			t.Errorf("%s with ?v = %s: compiled (%v, handled %v), evalFilter %v",
				exprString(ex), b["v"], got, handled, want)
		}
	}
}

// typedProbeEngine stores the comparison terms as values of ex:v, the
// dateTimes as values of ex:t.
func typedProbeEngine() *Engine {
	st := strabon.NewStore()
	for i, tm := range comparisonTerms() {
		p := "http://ex/v"
		if tm.Datatype == rdf.XSDDateTime {
			p = "http://ex/t"
		}
		st.Add(rdf.NewTriple(rdf.IRI("http://ex/s"+itoa(i)), rdf.IRI(p), tm))
	}
	return New(st)
}

func probeValues(t *testing.T, e *Engine, query string) []string {
	t.Helper()
	res, err := e.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range res.Bindings {
		out = append(out, b["t"].Value)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDateTimeComparesByInstant: 2012-01-01T01:00:00+02:00 is
// 2011-12-31T23:00Z, half an hour before 2011-12-31T23:30:00Z, though
// its lexical form sorts after it. A filter and an ORDER BY must both
// follow the instants.
func TestDateTimeComparesByInstant(t *testing.T) {
	e := typedProbeEngine()
	const prefix = "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
	got := probeValues(t, e, prefix+`SELECT ?t WHERE { ?s <http://ex/t> ?t .
		FILTER(?t < "2011-12-31T23:30:00Z"^^xsd:dateTime) }`)
	if want := []string{"2012-01-01T01:00:00+02:00"}; !sameStrings(got, want) {
		t.Errorf("filter kept %q, want %q", got, want)
	}
	got = probeValues(t, e, `SELECT ?t WHERE { ?s <http://ex/t> ?t } ORDER BY ?t`)
	if want := []string{"2012-01-01T01:00:00+02:00", "2011-12-31T23:30:00Z"}; !sameStrings(got, want) {
		t.Errorf("ORDER BY gave %q, want %q", got, want)
	}
}

// TestNumericEqualityAcrossForms: FILTER(?n = 10) matches "10" and "010"
// (xsd:integer) and "1e1" (xsd:double), but not the string "10".
func TestNumericEqualityAcrossForms(t *testing.T) {
	e := typedProbeEngine()
	got := probeValues(t, e, `SELECT ?t WHERE { ?s <http://ex/v> ?t . FILTER(?t = 10) } ORDER BY ?s`)
	if want := []string{"10", "010", "1e1"}; !sameStrings(got, want) {
		t.Errorf("FILTER(?t = 10) kept %q, want %q", got, want)
	}
}
