// Package column implements the MonetDB-style columnar kernel the TELEIOS
// database tier runs on: typed columns (BATs with a void head — the value
// vector plus implicit dense object identifiers), column-at-a-time
// operators producing materialised intermediate results, and tables with
// schemas.
//
// Both the SciQL array engine (internal/array, internal/sciql) and the
// Strabon triple store (internal/strabon) sit directly on this package,
// mirroring the paper's architecture where SciQL and Strabon share MonetDB
// as their execution substrate.
package column

import (
	"fmt"
)

// Type enumerates column value types.
type Type int

// Column types.
const (
	Int64 Type = iota + 1
	Float64
	String
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("TYPE(%d)", int(t))
	}
}

// Column is a typed value vector — the tail of a MonetDB BAT whose head is
// the implicit dense sequence 0..n-1 (a "void" head). Exactly one of the
// data slices is in use, selected by Typ. Nulls are tracked in an optional
// validity bitmap (nil means all valid).
type Column struct {
	Typ   Type
	ints  []int64
	flts  []float64
	strs  []string
	bools []bool
	// nulls[i] set means row i is NULL. Lazily allocated.
	nulls []bool
}

// NewInt64 wraps vs (not copied) as an Int64 column.
func NewInt64(vs []int64) *Column { return &Column{Typ: Int64, ints: vs} }

// NewFloat64 wraps vs as a Float64 column.
func NewFloat64(vs []float64) *Column { return &Column{Typ: Float64, flts: vs} }

// NewString wraps vs as a String column.
func NewString(vs []string) *Column { return &Column{Typ: String, strs: vs} }

// NewBool wraps vs as a Bool column.
func NewBool(vs []bool) *Column { return &Column{Typ: Bool, bools: vs} }

// NewEmpty returns an empty column of type t.
func NewEmpty(t Type) *Column { return &Column{Typ: t} }

// Len reports the number of rows.
func (c *Column) Len() int {
	switch c.Typ {
	case Int64:
		return len(c.ints)
	case Float64:
		return len(c.flts)
	case String:
		return len(c.strs)
	case Bool:
		return len(c.bools)
	}
	return 0
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.nulls != nil && c.nulls[i] }

// SetNull marks row i as NULL.
func (c *Column) SetNull(i int) {
	if c.nulls == nil {
		c.nulls = make([]bool, c.Len())
	}
	c.nulls[i] = true
}

// ClearNull marks row i as not NULL, for a writer that has just stored
// a value there.
func (c *Column) ClearNull(i int) {
	if c.nulls != nil {
		c.nulls[i] = false
	}
}

// Int returns the int64 value at row i (column must be Int64).
func (c *Column) Int(i int) int64 { return c.ints[i] }

// Float returns the float64 value at row i (column must be Float64).
func (c *Column) Float(i int) float64 { return c.flts[i] }

// Str returns the string value at row i (column must be String).
func (c *Column) Str(i int) string { return c.strs[i] }

// Ints exposes the backing int64 slice (Int64 columns only; nil otherwise).
func (c *Column) Ints() []int64 { return c.ints }

// Floats exposes the backing float64 slice.
func (c *Column) Floats() []float64 { return c.flts }

// Strs exposes the backing string slice.
func (c *Column) Strs() []string { return c.strs }

// Bools exposes the backing bool slice.
func (c *Column) Bools() []bool { return c.bools }

// AppendInt appends v (Int64 columns).
func (c *Column) AppendInt(v int64) {
	c.ints = append(c.ints, v)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AppendFloat appends v (Float64 columns).
func (c *Column) AppendFloat(v float64) {
	c.flts = append(c.flts, v)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AppendStr appends v (String columns).
func (c *Column) AppendStr(v string) {
	c.strs = append(c.strs, v)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AppendBool appends v (Bool columns).
func (c *Column) AppendBool(v bool) {
	c.bools = append(c.bools, v)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AttachNulls installs a validity bitmap wholesale: nulls[i] set marks
// row i NULL. Passing nil (or an all-false mask) clears the bitmap. The
// slice is retained, not copied.
func (c *Column) AttachNulls(nulls []bool) {
	for _, isNull := range nulls {
		if isNull {
			c.nulls = nulls
			return
		}
	}
	c.nulls = nil
}

// AppendNull appends a NULL row.
func (c *Column) AppendNull() {
	switch c.Typ {
	case Int64:
		c.ints = append(c.ints, 0)
	case Float64:
		c.flts = append(c.flts, 0)
	case String:
		c.strs = append(c.strs, "")
	case Bool:
		c.bools = append(c.bools, false)
	}
	if c.nulls == nil {
		c.nulls = make([]bool, c.Len()-1)
	}
	c.nulls = append(c.nulls, true)
}

// Value returns the value at row i as an interface (nil for NULL).
func (c *Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	switch c.Typ {
	case Int64:
		return c.ints[i]
	case Float64:
		return c.flts[i]
	case String:
		return c.strs[i]
	case Bool:
		return c.bools[i]
	}
	return nil
}

// check returns nil when appendChecked can append v: nil (NULL), a
// number to a numeric column, a string or bool to its own type.
func (c *Column) check(v any) error {
	ok := true
	switch v.(type) {
	case nil:
	case int64, int, float64:
		ok = c.Typ == Int64 || c.Typ == Float64
	case string:
		ok = c.Typ == String
	case bool:
		ok = c.Typ == Bool
	default:
		ok = false
	}
	if !ok {
		return fmt.Errorf("column: cannot append %T to %s", v, c.Typ)
	}
	return nil
}

// appendChecked appends a value check accepted.
func (c *Column) appendChecked(v any) {
	switch x := v.(type) {
	case nil:
		c.AppendNull()
	case string:
		c.AppendStr(x)
	case bool:
		c.AppendBool(x)
	case int64:
		c.appendNum(float64(x), x)
	case int:
		c.appendNum(float64(x), int64(x))
	case float64:
		c.appendNum(x, int64(x))
	}
}

// appendNum appends a number to an Int64 column as i, to a Float64
// column as f.
func (c *Column) appendNum(f float64, i int64) {
	if c.Typ == Int64 {
		c.AppendInt(i)
	} else {
		c.AppendFloat(f)
	}
}

// Gather materialises the rows of c at the given positions — MonetDB's
// projection (leftfetchjoin) primitive.
func (c *Column) Gather(positions []int) *Column {
	out := &Column{Typ: c.Typ}
	switch c.Typ {
	case Int64:
		out.ints = make([]int64, len(positions))
		for i, p := range positions {
			out.ints[i] = c.ints[p]
		}
	case Float64:
		out.flts = make([]float64, len(positions))
		for i, p := range positions {
			out.flts[i] = c.flts[p]
		}
	case String:
		out.strs = make([]string, len(positions))
		for i, p := range positions {
			out.strs[i] = c.strs[p]
		}
	case Bool:
		out.bools = make([]bool, len(positions))
		for i, p := range positions {
			out.bools[i] = c.bools[p]
		}
	}
	if c.nulls != nil {
		out.nulls = make([]bool, len(positions))
		for i, p := range positions {
			out.nulls[i] = c.nulls[p]
		}
	}
	return out
}

// Slice returns a view of rows [lo, hi) (shared backing arrays).
func (c *Column) Slice(lo, hi int) *Column {
	out := &Column{Typ: c.Typ}
	switch c.Typ {
	case Int64:
		out.ints = c.ints[lo:hi]
	case Float64:
		out.flts = c.flts[lo:hi]
	case String:
		out.strs = c.strs[lo:hi]
	case Bool:
		out.bools = c.bools[lo:hi]
	}
	if c.nulls != nil {
		out.nulls = c.nulls[lo:hi]
	}
	return out
}
