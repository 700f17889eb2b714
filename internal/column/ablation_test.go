package column

import "testing"

// BenchmarkAblationColumnVsRow is the paper's A2 ablation: column-at-a-time
// kernels versus tuple-at-a-time rows (RowTable, the test-only row-store
// comparator).
func BenchmarkAblationColumnVsRow(b *testing.B) {
	const n = 1_000_000
	keys := make([]int64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = int64(i % 1000)
		vals[i] = float64(i%997) / 997
	}
	colTbl := NewTable("t",
		Field{Name: "k", Typ: Int64},
		Field{Name: "v", Typ: Float64})
	colTbl.Cols[0] = NewInt64(keys)
	colTbl.Cols[1] = NewFloat64(vals)
	rowTbl := FromTable(colTbl)

	b.Run("select/column", func(b *testing.B) {
		c := colTbl.Col("v")
		for i := 0; i < b.N; i++ {
			if got := c.SelectRangeFloat(0.25, 0.5); len(got) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("select/row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := rowTbl.SelectFloatRange("v", 0.25, 0.5); len(got) == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("sum/column", func(b *testing.B) {
		c := colTbl.Col("v")
		for i := 0; i < b.N; i++ {
			if c.SumFloat() == 0 {
				b.Fatal("zero sum")
			}
		}
	})
	b.Run("sum/row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rowTbl.SumFloat("v") == 0 {
				b.Fatal("zero sum")
			}
		}
	})

	// Join: 1M probe rows against a 1000-key build side.
	dimKeys := make([]int64, 1000)
	for i := range dimKeys {
		dimKeys[i] = int64(i)
	}
	dimCol := NewTable("d", Field{Name: "k", Typ: Int64})
	dimCol.Cols[0] = NewInt64(dimKeys)
	dimRow := FromTable(dimCol)
	b.Run("join/column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, _ := HashJoinInt(colTbl.Col("k"), dimCol.Col("k"))
			if len(l) != n {
				b.Fatalf("join rows = %d", len(l))
			}
		}
	})
	b.Run("join/row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := rowTbl.HashJoinInt("k", dimRow, "k")
			if len(out) != n {
				b.Fatalf("join rows = %d", len(out))
			}
		}
	})
}
