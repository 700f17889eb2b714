package stsparql

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

// The SELECT tail over a folded store of 50,000 subjects × 4 predicates
// (200,000 triples): an integer, a double, a short string and a link to
// another subject each. The queries count, group, compute and order
// rows without returning many, so the tail's own cost — not decoding a
// large result — is what they measure.

const tailSubjects = 50000

var (
	tailOnce       sync.Once
	tailBenchStore *strabon.Store
)

func selectTailStore() *strabon.Store {
	tailOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		subject := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://ex/s%d", i)) }
		p := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://ex/p%d", i)) }
		triples := make([]rdf.Triple, 0, 4*tailSubjects)
		for i := 0; i < tailSubjects; i++ {
			s := subject(i)
			triples = append(triples,
				rdf.NewTriple(s, p(0), rdf.IntegerLiteral(int64(rng.Intn(100000)))),
				rdf.NewTriple(s, p(1), rdf.DoubleLiteral(float64(rng.Intn(1000000))/100)),
				rdf.NewTriple(s, p(2), rdf.Literal(fmt.Sprintf("name-%d", rng.Intn(5000)))),
				rdf.NewTriple(s, p(3), subject(rng.Intn(tailSubjects))))
		}
		st := strabon.NewStore()
		st.AddAll(triples)
		st.Fold(0)
		tailBenchStore = st
	})
	return tailBenchStore
}

// BenchmarkSelectTail reports ns, bytes and allocations per query of
// each tail shape; run it with -benchmem.
func BenchmarkSelectTail(b *testing.B) {
	eng := New(selectTailStore())
	for _, c := range []struct{ name, query string }{
		{"count", `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`},
		{"group", `SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s`},
		{"expr", `SELECT ?s (?v * 2 AS ?w) WHERE { ?s <http://ex/p0> ?v } LIMIT 10`},
		{"orderdesc", `SELECT ?s WHERE { ?s <http://ex/p0> ?v } ORDER BY DESC(?v) LIMIT 10`},
		{"distinctorder", `SELECT DISTINCT ?n WHERE { ?s <http://ex/p2> ?n } ORDER BY ?n LIMIT 10`},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := eng.Query(c.query); err != nil { // parse outside the timer
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
