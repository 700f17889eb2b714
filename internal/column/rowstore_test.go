package column

// RowTable is a row-at-a-time (N-ary storage) comparator used by the A2
// ablation benchmark (BenchmarkAblationColumnVsRow): the same relation
// stored as a slice of row tuples, queried with tuple-at-a-time
// iteration. It exists only to measure the column-at-a-time execution
// advantage the paper's MonetDB substrate provides, so it lives in test
// code; production code paths always use Table.
type RowTable struct {
	Name   string
	Fields []Field
	Rows   [][]any
}

// NewRowTable creates an empty row-oriented table.
func NewRowTable(name string, fields ...Field) *RowTable {
	return &RowTable{Name: name, Fields: fields}
}

// FromTable converts a columnar table to row layout.
func FromTable(t *Table) *RowTable {
	rt := &RowTable{Name: t.Name, Fields: t.Fields}
	n := t.NumRows()
	rt.Rows = make([][]any, n)
	for i := 0; i < n; i++ {
		rt.Rows[i] = t.Row(i)
	}
	return rt
}

// AppendRow appends one row tuple.
func (rt *RowTable) AppendRow(vals ...any) {
	row := make([]any, len(vals))
	copy(row, vals)
	rt.Rows = append(rt.Rows, row)
}

// colIndex returns the index of the named column, or -1.
func (rt *RowTable) colIndex(name string) int {
	for i, f := range rt.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// SelectIntEq scans tuple-at-a-time for rows where col == v.
func (rt *RowTable) SelectIntEq(col string, v int64) [][]any {
	ci := rt.colIndex(col)
	if ci < 0 {
		return nil
	}
	var out [][]any
	for _, row := range rt.Rows {
		if x, ok := row[ci].(int64); ok && x == v {
			out = append(out, row)
		}
	}
	return out
}

// SelectFloatRange scans tuple-at-a-time for rows with lo <= col <= hi.
func (rt *RowTable) SelectFloatRange(col string, lo, hi float64) [][]any {
	ci := rt.colIndex(col)
	if ci < 0 {
		return nil
	}
	var out [][]any
	for _, row := range rt.Rows {
		if x, ok := row[ci].(float64); ok && x >= lo && x <= hi {
			out = append(out, row)
		}
	}
	return out
}

// SumFloat computes the sum of a float column tuple-at-a-time.
func (rt *RowTable) SumFloat(col string) float64 {
	ci := rt.colIndex(col)
	if ci < 0 {
		return 0
	}
	var sum float64
	for _, row := range rt.Rows {
		switch x := row[ci].(type) {
		case float64:
			sum += x
		case int64:
			sum += float64(x)
		}
	}
	return sum
}

// HashJoinInt performs a tuple-at-a-time hash join on integer columns.
func (rt *RowTable) HashJoinInt(col string, other *RowTable, otherCol string) [][]any {
	ci := rt.colIndex(col)
	cj := other.colIndex(otherCol)
	if ci < 0 || cj < 0 {
		return nil
	}
	ht := make(map[int64][][]any)
	for _, row := range other.Rows {
		if v, ok := row[cj].(int64); ok {
			ht[v] = append(ht[v], row)
		}
	}
	var out [][]any
	for _, row := range rt.Rows {
		v, ok := row[ci].(int64)
		if !ok {
			continue
		}
		for _, m := range ht[v] {
			joined := make([]any, 0, len(row)+len(m))
			joined = append(joined, row...)
			joined = append(joined, m...)
			out = append(out, joined)
		}
	}
	return out
}
