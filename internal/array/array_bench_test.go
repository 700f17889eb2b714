package array

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/parallel"
)

func benchImage(size int) *Array {
	a := MustNew("img", Dim{Name: "y", Size: size}, Dim{Name: "x", Size: size})
	for i := range a.Data {
		a.Data[i] = float64(i%251) / 251
	}
	return a
}

// The 2D kernels are benchmark-gated at 128² and 512² (the NOA chain's
// working sizes); BenchmarkAblationParallelKernels sweeps the worker
// count for the cores-scaling ablation.

func BenchmarkTileAvg(b *testing.B) {
	for _, size := range []int{128, 512} {
		img := benchImage(size)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := img.Tile(16, 16, "avg"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	for _, size := range []int{128, 512} {
		img := benchImage(size)
		mask := img.Threshold(0.9) // ~10% of cells set, fragmented
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				comps, err := mask.ConnectedComponents()
				if err != nil {
					b.Fatal(err)
				}
				if len(comps) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// A5 — ablation: tile-parallel kernel scaling across worker counts
// (1, 2, 4 and GOMAXPROCS), at both gated image sizes.
func BenchmarkAblationParallelKernels(b *testing.B) {
	workerSet := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		workerSet = append(workerSet, n)
	}
	for _, size := range []int{128, 512} {
		img := benchImage(size)
		mask := img.Threshold(0.9)
		for _, workers := range workerSet {
			b.Run(fmt.Sprintf("size=%d/workers=%d", size, workers), func(b *testing.B) {
				prev := parallel.SetParallelism(workers)
				defer parallel.SetParallelism(prev)
				for i := 0; i < b.N; i++ {
					if _, err := img.Tile(16, 16, "avg"); err != nil {
						b.Fatal(err)
					}
					if _, err := mask.ConnectedComponents(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
