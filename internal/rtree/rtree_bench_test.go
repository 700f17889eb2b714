package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// STR bulk load: build cost and query performance.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		items := randomItems(n, 42)
		b.Run(fmt.Sprintf("bulk/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tr := BulkLoad(items, 16); tr.size != n {
					b.Fatal("size")
				}
			}
		})
	}
}

func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		items := randomItems(n, 43)
		bulk := BulkLoad(items, 16)
		rng := rand.New(rand.NewSource(44))
		queries := make([]geo.Envelope, 64)
		for i := range queries {
			queries[i] = box(rng.Float64()*95, rng.Float64()*95, 5, 5)
		}
		b.Run(fmt.Sprintf("bulk/n=%d", n), func(b *testing.B) {
			var buf []uint64
			for i := 0; i < b.N; i++ {
				buf = bulk.Search(queries[i%len(queries)], buf[:0])
			}
		})
	}
}
