package array

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// 2D image operations used by the NOA processing chain: convolution,
// resampling, threshold classification, tiling (patch aggregation) and
// connected-component labelling. All operate on rank-2 arrays laid out
// (y, x).

func (a *Array) check2D() error {
	if len(a.Dims) != 2 {
		return fmt.Errorf("array: %q is rank %d, need rank 2", a.Name, len(a.Dims))
	}
	return nil
}

// Height reports the y extent of a rank-2 array.
func (a *Array) Height() int { return a.Dims[0].Size }

// Width reports the x extent of a rank-2 array.
func (a *Array) Width() int { return a.Dims[1].Size }

// Threshold returns a binary mask (1 where value >= thresh, else 0),
// preserving nulls — the classification primitive of the hotspot chain.
func (a *Array) Threshold(thresh float64) *Array {
	return a.Map(func(v float64) float64 {
		if v >= thresh {
			return 1
		}
		return 0
	})
}

// Tile partitions a rank-2 array into tileH x tileW patches and aggregates
// each patch with agg ("avg", "min", "max", "sum"), producing the reduced
// array — SciQL's structured GROUP BY over dimension tiles (the feature
// extraction "patch" step of the ingestion tier).
func (a *Array) Tile(tileH, tileW int, agg string) (*Array, error) {
	if err := a.check2D(); err != nil {
		return nil, err
	}
	if tileH <= 0 || tileW <= 0 {
		return nil, fmt.Errorf("array: bad tile size %dx%d", tileH, tileW)
	}
	switch agg {
	case "avg", "min", "max", "sum":
	default:
		return nil, fmt.Errorf("array: unknown tile aggregate %q", agg)
	}
	h, w := a.Height(), a.Width()
	oh := (h + tileH - 1) / tileH
	ow := (w + tileW - 1) / tileW
	out := MustNew(a.Name, Dim{a.Dims[0].Name, oh}, Dim{a.Dims[1].Name, ow})
	// One output tile row per work item: each covers tileH input rows.
	parallelRows(oh, tileH*w, func(ty0, ty1 int) {
		for ty := ty0; ty < ty1; ty++ {
			for tx := 0; tx < ow; tx++ {
				var sum, min, max float64
				min, max = math.Inf(1), math.Inf(-1)
				count := 0
				for y := ty * tileH; y < (ty+1)*tileH && y < h; y++ {
					rowOff := y * w
					x1 := (tx + 1) * tileW
					if x1 > w {
						x1 = w
					}
					for x := tx * tileW; x < x1; x++ {
						if a.Null != nil && a.Null[rowOff+x] {
							continue
						}
						v := a.Data[rowOff+x]
						sum += v
						if v < min {
							min = v
						}
						if v > max {
							max = v
						}
						count++
					}
				}
				var v float64
				switch agg {
				case "avg":
					if count > 0 {
						v = sum / float64(count)
					}
				case "min":
					if count > 0 {
						v = min
					}
				case "max":
					if count > 0 {
						v = max
					}
				case "sum":
					v = sum
				}
				out.Data[ty*ow+tx] = v
			}
		}
	})
	return out, nil
}

// Component is a connected group of non-zero cells in a binary mask.
type Component struct {
	// Label is the 1-based component id.
	Label int
	// Cells holds (y, x) coordinates of member cells.
	Cells [][2]int
	// MinY, MinX, MaxY, MaxX bound the component.
	MinY, MinX, MaxY, MaxX int
}

// Size reports the number of member cells.
func (c *Component) Size() int { return len(c.Cells) }

// ConnectedComponents labels the 4-connected components of non-zero cells
// — grouping adjacent hot pixels into hotspot regions before geometry
// generation. The sweep is a tile-parallel union-find: row strips are
// labelled concurrently on the worker pool, strip boundaries are merged,
// and components are numbered in row-major order of their first cell
// (the same labelling order the sequential scan produced). Member cells
// are listed in row-major order.
func (a *Array) ConnectedComponents() ([]Component, error) {
	if err := a.check2D(); err != nil {
		return nil, err
	}
	h, w := a.Height(), a.Width()
	n := h * w
	if n >= 1<<31 {
		return nil, fmt.Errorf("array: %q too large for component labelling", a.Name)
	}
	// parent[i] < 0 marks background; otherwise it is the union-find link.
	parent := make([]int32, n)

	// Phase 1: label disjoint row strips in parallel. Links never cross a
	// strip boundary, so strips touch disjoint parent ranges.
	stripRows := h
	if workers := parallel.Parallelism(); workers > 1 && n >= minParallelCells {
		stripRows = (h + workers - 1) / workers
	}
	nStrips := (h + stripRows - 1) / stripRows
	parallel.Range(nStrips, func(s0, s1 int) {
		for s := s0; s < s1; s++ {
			y0, y1 := s*stripRows, (s+1)*stripRows
			if y1 > h {
				y1 = h
			}
			for y := y0; y < y1; y++ {
				off := y * w
				for x := 0; x < w; x++ {
					i := off + x
					if a.Data[i] == 0 || (a.Null != nil && a.Null[i]) {
						parent[i] = -1
						continue
					}
					parent[i] = int32(i)
					if x > 0 && parent[i-1] >= 0 {
						ufUnion(parent, int32(i), int32(i-1))
					}
					if y > y0 && parent[i-w] >= 0 {
						ufUnion(parent, int32(i), int32(i-w))
					}
				}
			}
		}
	})

	// Phase 2: merge components across strip boundaries.
	for s := 1; s < nStrips; s++ {
		off := s * stripRows * w
		for x := 0; x < w; x++ {
			if parent[off+x] >= 0 && parent[off+x-w] >= 0 {
				ufUnion(parent, int32(off+x), int32(off+x-w))
			}
		}
	}

	// Phase 3: one row-major sweep assigns component ids in first-cell
	// order and collects cells and bounds.
	var comps []Component
	rootComp := map[int32]int32{}
	for y := 0; y < h; y++ {
		off := y * w
		for x := 0; x < w; x++ {
			i := off + x
			if parent[i] < 0 {
				continue
			}
			r := ufFind(parent, int32(i))
			id, ok := rootComp[r]
			if !ok {
				id = int32(len(comps))
				rootComp[r] = id
				comps = append(comps, Component{
					Label: len(comps) + 1,
					MinY:  y, MinX: x, MaxY: y, MaxX: x,
				})
			}
			c := &comps[id]
			c.Cells = append(c.Cells, [2]int{y, x})
			if y > c.MaxY {
				c.MaxY = y
			}
			if x < c.MinX {
				c.MinX = x
			}
			if x > c.MaxX {
				c.MaxX = x
			}
		}
	}
	return comps, nil
}

// ufFind resolves the union-find root of i with path halving.
func ufFind(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// ufUnion links the components of a and b, keeping the smaller root (so
// roots tend toward each component's first cell).
func ufUnion(parent []int32, a, b int32) {
	ra, rb := ufFind(parent, a), ufFind(parent, b)
	switch {
	case ra == rb:
	case ra < rb:
		parent[rb] = ra
	default:
		parent[ra] = rb
	}
}
