package strabon

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

func benchTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i%1000)),
			rdf.IRI(fmt.Sprintf("http://ex/p%d", i%10)),
			rdf.IntegerLiteral(int64(i)),
		))
	}
	return out
}

func BenchmarkStoreAdd(b *testing.B) {
	triples := benchTriples(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore()
		if got := st.AddAll(triples); got != len(triples) {
			b.Fatal("dup")
		}
	}
	b.ReportMetric(float64(len(triples)), "triples/op")
}

func BenchmarkStoreSpatialIngest(b *testing.B) {
	// Adding spatial literals pays WKT parsing and reprojection.
	lits := make([]rdf.Triple, 1000)
	for i := range lits {
		lits[i] = rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/g%d", i)),
			rdf.IRI("http://ex/geom"),
			rdf.WKTLiteral(fmt.Sprintf("POINT (%d.5 %d.5)", i%1000, i), 4326),
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore()
		st.AddAll(lits)
		if st.Stats().SpatialLiterals != 1000 {
			b.Fatal("spatial count")
		}
	}
}
