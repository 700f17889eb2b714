package column

import (
	"fmt"
)

// Field describes one table column.
type Field struct {
	Name string
	Typ  Type
}

// Table is a named collection of equal-length columns — the relational
// face of the BAT kernel.
type Table struct {
	Name   string
	Fields []Field
	Cols   []*Column
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, fields ...Field) *Table {
	t := &Table{Name: name, Fields: fields}
	for _, f := range fields {
		t.Cols = append(t.Cols, NewEmpty(f.Typ))
	}
	return t
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Col returns the column with the given name, or nil.
func (t *Table) Col(name string) *Column {
	for i, f := range t.Fields {
		if f.Name == name {
			return t.Cols[i]
		}
	}
	return nil
}

// AppendRow appends one row whole, or nothing when CheckRow fails.
func (t *Table) AppendRow(vals ...any) error {
	if err := t.CheckRow(vals...); err != nil {
		return err
	}
	for i, v := range vals {
		t.Cols[i].appendChecked(v)
	}
	return nil
}

// CheckRow returns the error AppendRow would return for vals, or nil:
// len(vals) must equal the column count, and each value must fit its
// column.
func (t *Table) CheckRow(vals ...any) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("column: row has %d values, table %q has %d columns", len(vals), t.Name, len(t.Cols))
	}
	for i, v := range vals {
		if err := t.Cols[i].check(v); err != nil {
			return fmt.Errorf("column %q: %w", t.Fields[i].Name, err)
		}
	}
	return nil
}

// Gather returns a new table with only the given row positions.
func (t *Table) Gather(positions []int) *Table {
	out := &Table{Name: t.Name, Fields: t.Fields}
	for _, c := range t.Cols {
		out.Cols = append(out.Cols, c.Gather(positions))
	}
	return out
}

// Head returns a view of the first n rows (shared column backing
// arrays); the table itself is returned when it has no more than n rows.
func (t *Table) Head(n int) *Table {
	if t.NumRows() <= n {
		return t
	}
	out := &Table{Name: t.Name, Fields: t.Fields}
	for _, c := range t.Cols {
		out.Cols = append(out.Cols, c.Slice(0, n))
	}
	return out
}
