// Package array implements the multidimensional array model beneath SciQL:
// dense n-dimensional arrays with named dimensions stored in row-major
// order over the columnar kernel's value vectors. SciQL (internal/sciql)
// compiles array queries to the operations here; the ingestion tier uses
// them for cropping and classification of satellite imagery,
// exactly the workload the paper assigns to SciQL.
package array

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Dim describes one array dimension: a name and its extent [0, Size).
type Dim struct {
	Name string
	Size int
}

// Array is a dense n-dimensional float64 array. Row-major layout: the last
// dimension varies fastest. The zero value is unusable; call New.
type Array struct {
	Name string
	Dims []Dim
	Data []float64
	// Null marks cells without a value (SciQL arrays admit null cells).
	// nil means all cells are valid.
	Null []bool
}

// New allocates an array of the given dimensions filled with zeros.
func New(name string, dims ...Dim) (*Array, error) {
	n := 1
	for _, d := range dims {
		if d.Size <= 0 {
			return nil, fmt.Errorf("array: dimension %q has non-positive size %d", d.Name, d.Size)
		}
		if n > (1<<40)/d.Size {
			return nil, fmt.Errorf("array: total size overflow")
		}
		n *= d.Size
	}
	ds := make([]Dim, len(dims))
	copy(ds, dims)
	return &Array{Name: name, Dims: ds, Data: make([]float64, n)}, nil
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(name string, dims ...Dim) *Array {
	a, err := New(name, dims...)
	if err != nil {
		panic(err)
	}
	return a
}

// Size reports the total cell count.
func (a *Array) Size() int { return len(a.Data) }

// offset computes the flat index of idx (must have one entry per
// dimension, each in range).
func (a *Array) offset(idx []int) (int, error) {
	if len(idx) != len(a.Dims) {
		return 0, fmt.Errorf("array: %d indices for rank-%d array", len(idx), len(a.Dims))
	}
	off := 0
	for i, d := range a.Dims {
		if idx[i] < 0 || idx[i] >= d.Size {
			return 0, fmt.Errorf("array: index %d out of range [0,%d) for dimension %q", idx[i], d.Size, d.Name)
		}
		off = off*d.Size + idx[i]
	}
	return off, nil
}

// Set assigns the value at idx.
func (a *Array) Set(v float64, idx ...int) error {
	off, err := a.offset(idx)
	if err != nil {
		return err
	}
	a.Data[off] = v
	if a.Null != nil {
		a.Null[off] = false
	}
	return nil
}

// IsNull reports whether the cell at flat offset off is null.
func (a *Array) IsNull(off int) bool { return a.Null != nil && a.Null[off] }

// At2 is the 2D fast path (y, x) used by the raster pipeline.
func (a *Array) At2(y, x int) float64 {
	return a.Data[y*a.Dims[1].Size+x]
}

// Set2 is the 2D fast path (y, x).
func (a *Array) Set2(y, x int, v float64) {
	a.Data[y*a.Dims[1].Size+x] = v
}

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	out := &Array{Name: a.Name, Dims: append([]Dim(nil), a.Dims...), Data: append([]float64(nil), a.Data...)}
	if a.Null != nil {
		out.Null = append([]bool(nil), a.Null...)
	}
	return out
}

// Slice extracts the rectangular subarray [lo[i], hi[i]) per dimension —
// SciQL's dimension-range selection (the demo's cropping step).
func (a *Array) Slice(lo, hi []int) (*Array, error) {
	if len(lo) != len(a.Dims) || len(hi) != len(a.Dims) {
		return nil, fmt.Errorf("array: slice bounds rank mismatch")
	}
	dims := make([]Dim, len(a.Dims))
	for i, d := range a.Dims {
		if lo[i] < 0 || hi[i] > d.Size || lo[i] >= hi[i] {
			return nil, fmt.Errorf("array: bad slice [%d,%d) for dimension %q of size %d", lo[i], hi[i], d.Name, d.Size)
		}
		dims[i] = Dim{Name: d.Name, Size: hi[i] - lo[i]}
	}
	out, err := New(a.Name, dims...)
	if err != nil {
		return nil, err
	}
	if a.Null != nil {
		out.Null = make([]bool, len(out.Data))
	}
	// Iterate over the output coordinates.
	idx := make([]int, len(dims))
	src := make([]int, len(dims))
	for flat := 0; flat < len(out.Data); flat++ {
		for i := range idx {
			src[i] = idx[i] + lo[i]
		}
		sOff, _ := a.offset(src)
		out.Data[flat] = a.Data[sOff]
		if a.Null != nil {
			out.Null[flat] = a.Null[sOff]
		}
		// Increment odometer.
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < dims[i].Size {
				break
			}
			idx[i] = 0
		}
	}
	return out, nil
}

// The kernels (Combine, ConnectedComponents) split their cell ranges
// over the process-wide slot-budget pool in internal/parallel, shared
// with the ingestion tier, the NOA chain and the stSPARQL morsel
// executor. minParallelCells is the smallest range worth splitting:
// below it the goroutine handoff costs more than the work.
const minParallelCells = 16 << 10

// Combine applies f cell-wise across two arrays of identical shape. A cell
// that is null in either input is null in the output.
func Combine(a, b *Array, f func(x, y float64) float64) (*Array, error) {
	if len(a.Dims) != len(b.Dims) {
		return nil, fmt.Errorf("array: rank mismatch %d vs %d", len(a.Dims), len(b.Dims))
	}
	for i := range a.Dims {
		if a.Dims[i].Size != b.Dims[i].Size {
			return nil, fmt.Errorf("array: dimension %d size mismatch %d vs %d", i, a.Dims[i].Size, b.Dims[i].Size)
		}
	}
	out := a.Clone()
	if b.Null != nil && out.Null == nil {
		out.Null = make([]bool, len(out.Data))
	}
	combine := func(lo, hi int) {
		if out.Null == nil {
			for i := lo; i < hi; i++ {
				out.Data[i] = f(a.Data[i], b.Data[i])
			}
			return
		}
		for i := lo; i < hi; i++ {
			if a.IsNull(i) || b.IsNull(i) {
				out.Null[i] = true
				out.Data[i] = 0
				continue
			}
			out.Data[i] = f(a.Data[i], b.Data[i])
		}
	}
	if len(out.Data) < minParallelCells {
		combine(0, len(out.Data))
	} else {
		// f runs tile-parallel; it must be safe for concurrent calls.
		parallel.Range(len(out.Data), combine)
	}
	return out, nil
}

// MinMax reports the extremes of the valid cells — the binning pre-pass
// of patch extraction only needs the range. ok is false when no cell is
// valid.
func (a *Array) MinMax() (min, max float64, ok bool) {
	min, max = math.Inf(1), math.Inf(-1)
	if a.Null == nil {
		for _, v := range a.Data {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		ok = len(a.Data) > 0
	} else {
		for i, v := range a.Data {
			if a.Null[i] {
				continue
			}
			ok = true
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	return min, max, true
}
