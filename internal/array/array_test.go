package array

import (
	"testing"
)

func TestNewAndIndexing(t *testing.T) {
	a, err := New("img", Dim{"y", 3}, Dim{"x", 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Dims) != 2 || a.Size() != 12 {
		t.Fatal("shape")
	}
	if err := a.Set(7.5, 2, 3); err != nil {
		t.Fatal(err)
	}
	if a.At2(2, 3) != 7.5 || a.Data[2*4+3] != 7.5 {
		t.Fatal("Set is row-major")
	}
	a.Set2(0, 0, 1)
	if a.Data[0] != 1 {
		t.Fatal("Set2 fast path")
	}
	// Errors.
	if err := a.Set(0, 5, 0); err == nil {
		t.Fatal("out of range")
	}
	if err := a.Set(0, 0); err == nil {
		t.Fatal("rank mismatch")
	}
	if _, err := New("bad", Dim{"y", 0}); err == nil {
		t.Fatal("zero dimension")
	}
}

// setNull marks the cell at flat offset off as null.
func setNull(a *Array, off int) {
	if a.Null == nil {
		a.Null = make([]bool, len(a.Data))
	}
	a.Null[off] = true
}

// threshold returns a binary mask (1 where value >= thresh, else 0),
// the input the labelling kernel takes.
func threshold(a *Array, thresh float64) *Array {
	out := a.Clone()
	for i, v := range out.Data {
		out.Data[i] = 0
		if v >= thresh {
			out.Data[i] = 1
		}
	}
	return out
}

func TestNullCells(t *testing.T) {
	a := MustNew("n", Dim{"y", 2}, Dim{"x", 2})
	setNull(a, 1)
	if !a.IsNull(1) || a.IsNull(0) {
		t.Fatal("null flags")
	}
	// Set clears null.
	if err := a.Set(5, 0, 1); err != nil {
		t.Fatal(err)
	}
	if a.IsNull(1) {
		t.Fatal("Set should clear null")
	}
}

func TestSlice(t *testing.T) {
	a := MustNew("img", Dim{"y", 4}, Dim{"x", 5})
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			a.Set2(y, x, float64(y*10+x))
		}
	}
	s, err := a.Slice([]int{1, 2}, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Height() != 2 || s.Width() != 3 {
		t.Fatalf("slice shape %dx%d", s.Height(), s.Width())
	}
	if s.At2(0, 0) != 12 || s.At2(1, 2) != 24 {
		t.Fatalf("slice values %g %g", s.At2(0, 0), s.At2(1, 2))
	}
	// Nulls survive slicing.
	setNull(a, 1*5+2)
	s2, err := a.Slice([]int{1, 2}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.IsNull(0) {
		t.Fatal("null lost")
	}
	// Errors.
	if _, err := a.Slice([]int{0}, []int{1}); err == nil {
		t.Fatal("rank mismatch")
	}
	if _, err := a.Slice([]int{0, 3}, []int{4, 3}); err == nil {
		t.Fatal("empty range")
	}
	if _, err := a.Slice([]int{0, 0}, []int{9, 9}); err == nil {
		t.Fatal("out of range")
	}
}

func TestSlice3D(t *testing.T) {
	a := MustNew("cube", Dim{"b", 2}, Dim{"y", 3}, Dim{"x", 3})
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	s, err := a.Slice([]int{1, 1, 1}, []int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 4 {
		t.Fatalf("3d slice size %d", s.Size())
	}
	// Element (b=1,y=1,x=1) has flat index 1*9+1*3+1 = 13.
	if s.Data[0] != 13 {
		t.Fatalf("3d slice first = %g", s.Data[0])
	}
}

func TestCombine(t *testing.T) {
	a := MustNew("a", Dim{"x", 3})
	copy(a.Data, []float64{1, 2, 3})
	b := MustNew("b", Dim{"x", 3})
	copy(b.Data, []float64{10, 20, 30})
	sum, err := Combine(a, b, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Data[1] != 22 {
		t.Fatal("Combine")
	}
	// Null propagation.
	setNull(b, 1)
	sum2, err := Combine(a, b, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	if !sum2.IsNull(1) || sum2.IsNull(0) {
		t.Fatal("null propagation")
	}
	// Shape errors.
	c := MustNew("c", Dim{"x", 4})
	if _, err := Combine(a, c, func(x, y float64) float64 { return 0 }); err == nil {
		t.Fatal("size mismatch")
	}
	d := MustNew("d", Dim{"x", 3}, Dim{"y", 1})
	if _, err := Combine(a, d, func(x, y float64) float64 { return 0 }); err == nil {
		t.Fatal("rank mismatch")
	}
}

func TestConnectedComponents(t *testing.T) {
	a := MustNew("mask", Dim{"y", 5}, Dim{"x", 5})
	// Two components: a 2x2 block and an L shape, diagonal-separated.
	for _, c := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		a.Set2(c[0], c[1], 1)
	}
	for _, c := range [][2]int{{3, 3}, {3, 4}, {4, 3}} {
		a.Set2(c[0], c[1], 1)
	}
	// Diagonal neighbour of the first block: 4-connectivity keeps it apart.
	a.Set2(2, 2, 1)
	comps, err := a.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	var sizes []int
	for _, c := range comps {
		sizes = append(sizes, c.Size())
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 8 {
		t.Fatalf("total cells = %d", total)
	}
	// Bounding boxes.
	if comps[0].MinY != 0 || comps[0].MaxX != 1 {
		t.Fatalf("first bbox = %+v", comps[0])
	}
	// Null cells are not part of any component.
	setNull(a, 0)
	comps2, err := a.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	tot2 := 0
	for _, c := range comps2 {
		tot2 += c.Size()
	}
	if tot2 != 7 {
		t.Fatalf("total after null = %d", tot2)
	}
	if _, err := MustNew("v", Dim{"x", 3}).ConnectedComponents(); err == nil {
		t.Fatal("rank-1 CCL should error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew("a", Dim{"x", 2})
	a.Data[0] = 1
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("clone shares data")
	}
	setNull(a, 1)
	c2 := a.Clone()
	c2.Null[1] = false
	if !a.IsNull(1) {
		t.Fatal("clone shares null bitmap")
	}
}
