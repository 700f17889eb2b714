package array

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func randImage(rng *rand.Rand, h, w int, withNulls bool) *Array {
	a := MustNew("img", Dim{Name: "y", Size: h}, Dim{Name: "x", Size: w})
	for i := range a.Data {
		a.Data[i] = rng.Float64() * 100
	}
	if withNulls {
		a.Null = make([]bool, len(a.Data))
		for i := range a.Null {
			a.Null[i] = rng.Intn(11) == 0
		}
	}
	return a
}

func sameArray(t *testing.T, label string, a, b *Array) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s: size %d vs %d", label, len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] || a.IsNull(i) != b.IsNull(i) {
			t.Fatalf("%s: cell %d differs: %g/%v vs %g/%v",
				label, i, a.Data[i], a.IsNull(i), b.Data[i], b.IsNull(i))
		}
	}
}

// TestParallelKernelEquivalence pins every tile-parallel kernel to
// bit-identical results at parallelism 1, 2 and the machine default.
func TestParallelKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	images := []*Array{
		randImage(rng, 13, 17, false),
		randImage(rng, 200, 150, true), // above the parallel threshold
		randImage(rng, 300, 120, false),
	}
	type outcome struct {
		tile, thr *Array
		comps     []Component
	}
	run := func(img *Array) outcome {
		tile, err := img.Tile(7, 9, "avg")
		if err != nil {
			t.Fatal(err)
		}
		thr := img.Threshold(50)
		comps, err := thr.ConnectedComponents()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{tile: tile, thr: thr, comps: comps}
	}
	for i, img := range images {
		var ref outcome
		for _, workers := range []int{1, 2, 0} {
			prev := parallel.SetParallelism(workers)
			got := run(img)
			parallel.SetParallelism(prev)
			if workers == 1 {
				ref = got
				continue
			}
			label := fmt.Sprintf("img%d workers=%d", i, workers)
			sameArray(t, label+" tile", ref.tile, got.tile)
			sameArray(t, label+" threshold", ref.thr, got.thr)
			if len(ref.comps) != len(got.comps) {
				t.Fatalf("%s components: %d vs %d", label, len(ref.comps), len(got.comps))
			}
			for c := range ref.comps {
				r, g := ref.comps[c], got.comps[c]
				if r.Label != g.Label || r.MinY != g.MinY || r.MinX != g.MinX ||
					r.MaxY != g.MaxY || r.MaxX != g.MaxX || len(r.Cells) != len(g.Cells) {
					t.Fatalf("%s component %d differs: %+v vs %+v", label, c, r, g)
				}
				for k := range r.Cells {
					if r.Cells[k] != g.Cells[k] {
						t.Fatalf("%s component %d cell %d differs", label, c, k)
					}
				}
			}
		}
	}
}

// TestConnectedComponentsStripMerge stresses components that span many
// strip boundaries (vertical stripes and a full-frame spiral-ish snake).
func TestConnectedComponentsStripMerge(t *testing.T) {
	h, w := 400, 64 // tall: strips split on rows
	a := MustNew("m", Dim{Name: "y", Size: h}, Dim{Name: "x", Size: w})
	// Vertical stripes every 4 columns: each is ONE component crossing
	// every strip boundary.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x += 4 {
			a.Set2(y, x, 1)
		}
	}
	for _, workers := range []int{1, 3, 0} {
		prev := parallel.SetParallelism(workers)
		comps, err := a.ConnectedComponents()
		parallel.SetParallelism(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != w/4 {
			t.Fatalf("workers=%d: components = %d, want %d", workers, len(comps), w/4)
		}
		for i, c := range comps {
			if c.Size() != h {
				t.Fatalf("workers=%d: component %d size %d, want %d", workers, i, c.Size(), h)
			}
			if c.MinX != i*4 || c.MaxX != i*4 || c.MinY != 0 || c.MaxY != h-1 {
				t.Fatalf("workers=%d: component %d bbox %+v", workers, i, c)
			}
		}
	}
}

// The shared-pool stress test lives in internal/parallel (the pool's
// home package) since the extraction; the kernel-level equivalence
// tests above keep pinning bit-identical results per worker count.
