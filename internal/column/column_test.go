package column

import (
	"testing"
)

func TestColumnBasics(t *testing.T) {
	c := NewInt64([]int64{3, 1, 4, 1, 5})
	if c.Len() != 5 || c.Typ != Int64 {
		t.Fatal("len/type")
	}
	if c.Int(2) != 4 {
		t.Fatal("Int")
	}
	c.AppendInt(9)
	if c.Len() != 6 || c.Int(5) != 9 {
		t.Fatal("append")
	}
	f := NewFloat64([]float64{1.5})
	f.AppendFloat(2.5)
	if f.Float(1) != 2.5 {
		t.Fatal("float append")
	}
	s := NewString([]string{"a"})
	s.AppendStr("b")
	if s.Str(1) != "b" {
		t.Fatal("string append")
	}
	b := NewBool([]bool{true})
	b.AppendBool(false)
	if b.BoolAt(1) {
		t.Fatal("bool append")
	}
}

func TestTypeString(t *testing.T) {
	if Int64.String() != "BIGINT" || Float64.String() != "DOUBLE" ||
		String.String() != "VARCHAR" || Bool.String() != "BOOLEAN" {
		t.Fatal("type names")
	}
}

func TestNulls(t *testing.T) {
	c := NewEmpty(Int64)
	c.AppendInt(1)
	c.AppendNull()
	c.AppendInt(3)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Fatal("null flags")
	}
	if c.Value(1) != nil {
		t.Fatal("null value should be nil")
	}
	// Appends after a null keep the bitmap aligned.
	c.AppendInt(4)
	if c.IsNull(3) {
		t.Fatal("appended value marked null")
	}
	// SetNull works on existing rows.
	c.SetNull(0)
	if !c.IsNull(0) {
		t.Fatal("SetNull")
	}
}

func TestAppendValueCoercion(t *testing.T) {
	c := NewEmpty(Int64)
	if err := c.AppendValue(int(7)); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendValue(float64(2.9)); err != nil {
		t.Fatal(err)
	}
	if c.Int(1) != 2 {
		t.Fatalf("truncated float = %d", c.Int(1))
	}
	if err := c.AppendValue("nope"); err == nil {
		t.Fatal("string into int should fail")
	}
	f := NewEmpty(Float64)
	if err := f.AppendValue(int64(3)); err != nil || f.Float(0) != 3 {
		t.Fatal("int into float")
	}
	if err := f.AppendValue(true); err == nil {
		t.Fatal("bool into float should fail")
	}
	s := NewEmpty(String)
	if err := s.AppendValue(1); err == nil {
		t.Fatal("int into string should fail")
	}
	b := NewEmpty(Bool)
	if err := b.AppendValue("x"); err == nil {
		t.Fatal("string into bool should fail")
	}
	if err := b.AppendValue(nil); err != nil || !b.IsNull(0) {
		t.Fatal("nil appends NULL")
	}
}

func TestGather(t *testing.T) {
	c := NewString([]string{"a", "b", "c", "d"})
	g := c.Gather([]int{3, 1})
	if g.Len() != 2 || g.Str(0) != "d" || g.Str(1) != "b" {
		t.Fatalf("gather = %v", g.strs)
	}
	// Gather keeps null flags.
	n := NewEmpty(Int64)
	n.AppendInt(1)
	n.AppendNull()
	gn := n.Gather([]int{1, 0})
	if !gn.IsNull(0) || gn.IsNull(1) {
		t.Fatal("gather nulls")
	}
}

func TestSlice(t *testing.T) {
	c := NewInt64([]int64{0, 1, 2, 3, 4})
	s := c.Slice(1, 4)
	if s.Len() != 3 || s.Int(0) != 1 || s.Int(2) != 3 {
		t.Fatal("slice")
	}
}

func TestTableBasics(t *testing.T) {
	tbl := NewTable("products",
		Field{"id", Int64}, Field{"name", String}, Field{"size", Float64})
	if err := tbl.AppendRow(int64(1), "msg1", 12.5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(int64(2), "msg2", 14.5); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Col("name").Str(1) != "msg2" {
		t.Fatal("Col access")
	}
	if tbl.Col("missing") != nil {
		t.Fatal("missing column should be nil")
	}
	row := tbl.Row(0)
	if row[0] != int64(1) || row[1] != "msg1" || row[2] != 12.5 {
		t.Fatalf("Row = %v", row)
	}
	if err := tbl.AppendRow(int64(3)); err == nil {
		t.Fatal("arity mismatch should error")
	}
	g := tbl.Gather([]int{1})
	if g.NumRows() != 1 || g.Col("id").Int(0) != 2 {
		t.Fatal("table gather")
	}
}
