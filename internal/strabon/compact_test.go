package strabon

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rdf"
)

func TestCompact(t *testing.T) {
	st := NewStore()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	for i := 0; i < 50; i++ {
		st.Remove(tr(fmt.Sprintf("s%d", i*2), "p", fmt.Sprintf("o%d", i*2)))
	}
	pID, _ := st.LookupID(rdf.IRI("p"))
	beforeTerms := decodeObjects(st.Snapshot(), TriplePattern{P: pID})

	if got := st.Compact(); got != 50 {
		t.Fatalf("reclaimed = %d", got)
	}
	if st.Len() != 50 {
		t.Fatalf("len = %d", st.Len())
	}
	// Same logical contents after compaction.
	afterTerms := decodeObjects(st.Snapshot(), TriplePattern{P: pID})
	if len(afterTerms) != len(beforeTerms) {
		t.Fatalf("rows %d != %d", len(afterTerms), len(beforeTerms))
	}
	for i := range beforeTerms {
		if beforeTerms[i] != afterTerms[i] {
			t.Fatalf("row %d: %s != %s", i, afterTerms[i], beforeTerms[i])
		}
	}
	// Second compaction is a no-op.
	if st.Compact() != 0 {
		t.Fatal("idempotent")
	}
	// Mutations keep working after compaction.
	if !st.Add(tr("new", "p", "x")) {
		t.Fatal("add after compact")
	}
	if !st.Remove(tr("s1", "p", "o1")) {
		t.Fatal("remove after compact")
	}
	if st.Len() != 50 {
		t.Fatalf("len = %d", st.Len())
	}
}

// decodeObjects returns the sorted object values of the rows matching pat.
func decodeObjects(sn *Snapshot, pat TriplePattern) []string {
	var out []string
	for _, t := range decodeRows(sn, sn.MatchRows(pat, nil)) {
		out = append(out, t.O.Value)
	}
	sort.Strings(out)
	return out
}
