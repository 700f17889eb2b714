package sciql

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/array"
	"repro/internal/column"
)

// The SciQL executor. Every statement compiles into typed kernels that
// run over columnar data — table columns, array value planes and virtual
// dimension columns — guided by selection vectors, as the stSPARQL
// id-space executor does, instead of boxing every cell into `any` and
// dispatching through per-row environment lookups. It is the only
// executor: the tuple-at-a-time interpreter it replaced is kept in
// oracle_test.go as the reference the equivalence suites hold it to,
// row order and error text included.
//
// Core ideas:
//
//   - One solution space for any number of relations: one vector of base
//     positions per relation (nil meaning the identity). A FROM-less
//     SELECT and INSERT's VALUES are one row over no relation; one
//     relation is its own row (cell) range; two same-shaped arrays
//     equated on every dimension zip over one index; an equi-join is the
//     hash join's pair list; anything else is the lexicographic cross
//     product under a 50M-row guard. The rest of the WHERE runs as
//     residual filters.
//   - Selection vectors: WHERE conjuncts filter the space (or the
//     previous conjunct's survivors) left to right, with the
//     interpreter's short-circuit semantics row for row.
//   - Dimension predicate pushdown: `y BETWEEN`, `x =` and friends over
//     array dimensions become subarray index ranges enumerated directly,
//     never scanned and post-filtered.
//   - Aggregates: each aggregate call folds into one vector over the
//     groups, and the items compile over the group space, where an
//     aggregate is a column and any other column reads the group's first
//     row (NULL in a global aggregate over zero rows).
//   - Type errors are kernels: an operation ill-typed for its operands'
//     kinds compiles to one that fails, with the interpreter's message,
//     on the first row whose operands are all non-NULL. Over NULLs, or an
//     empty selection, it yields NULL, as the interpreter did.
//   - Error order: a stage evaluates exactly the (row, expression) pairs
//     the interpreter does, but column by column, so rows that fail with
//     different errors can be met out of order. A failed stage is re-run
//     one row at a time (replay) to report the error the interpreter's
//     row order meets first.
//   - UPDATE evaluates every SET kernel over the surviving selection
//     before writing anything, so an error leaves the target untouched
//     and self-references read pre-update state.

// vkind is a kernel's static value type.
type vkind = column.Type

const (
	kInt   = column.Int64
	kFloat = column.Float64
	kStr   = column.String
	kBool  = column.Bool
)

// goType names a kind as the interpreter's messages did (by %T).
func goType(k vkind) string {
	switch k {
	case kInt:
		return "int64"
	case kFloat:
		return "float64"
	case kStr:
		return "string"
	}
	return "bool"
}

func isNumKind(k vkind) bool { return k == kInt || k == kFloat }

// vec is a typed value vector produced by a kernel; exactly one data
// slice is populated. null[i] marks NULL (nil = no nulls).
type vec struct {
	kind vkind
	i    []int64
	f    []float64
	s    []string
	b    []bool
	null []bool
}

func newVec(kind vkind, n int) *vec {
	v := &vec{kind: kind}
	switch kind {
	case kInt:
		v.i = make([]int64, n)
	case kFloat:
		v.f = make([]float64, n)
	case kStr:
		v.s = make([]string, n)
	case kBool:
		v.b = make([]bool, n)
	}
	return v
}

// nullVec is n NULLs.
func nullVec(n int) *vec {
	v := newVec(kFloat, n)
	v.null = make([]bool, n)
	for i := range v.null {
		v.null[i] = true
	}
	return v
}

func (v *vec) len() int {
	switch v.kind {
	case kInt:
		return len(v.i)
	case kFloat:
		return len(v.f)
	case kStr:
		return len(v.s)
	case kBool:
		return len(v.b)
	}
	return 0
}

func (v *vec) isNull(i int) bool { return v.null != nil && v.null[i] }

func (v *vec) setNull(i int) {
	if v.null == nil {
		v.null = make([]bool, v.len())
	}
	v.null[i] = true
}

// numAt returns the numeric value at i as float64 (kInt/kFloat only).
func (v *vec) numAt(i int) float64 {
	if v.kind == kInt {
		return float64(v.i[i])
	}
	return v.f[i]
}

// value boxes element i (nil for NULL).
func (v *vec) value(i int) any {
	if v.isNull(i) {
		return nil
	}
	switch v.kind {
	case kInt:
		return v.i[i]
	case kFloat:
		return v.f[i]
	case kStr:
		return v.s[i]
	}
	return v.b[i]
}

// vrel is a resolved FROM source.
type vrel struct {
	alias   string
	names   []string
	rows    int
	tbl     *column.Table
	arr     *ArrayObject
	strides []int // arrays: row-major stride per dimension
}

func (r *vrel) nd() int {
	if r.arr == nil {
		return 0
	}
	return len(r.arr.Dims)
}

// colKind is column ci's kind: the table column's type, or BIGINT
// dimensions and DOUBLE value attributes for arrays.
func (r *vrel) colKind(ci int) vkind {
	switch {
	case r.tbl != nil:
		return r.tbl.Cols[ci].Typ
	case ci < r.nd():
		return kInt
	}
	return kFloat
}

func newVrel(alias string, t *column.Table, a *ArrayObject) *vrel {
	if t != nil {
		names := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			names[i] = f.Name
		}
		return &vrel{alias: alias, names: names, rows: t.NumRows(), tbl: t}
	}
	var names []string
	for _, d := range a.Dims {
		names = append(names, d.Name)
	}
	names = append(names, a.order...)
	nd := len(a.Dims)
	strides := make([]int, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		strides[i] = s
		s *= a.Dims[i].Size
	}
	return &vrel{alias: alias, names: names, rows: a.Size(), arr: a, strides: strides}
}

func (e *Engine) resolveV(ref TableRef) (*vrel, error) {
	e.mu.RLock()
	t, isTable := e.tables[ref.Name]
	a, isArray := e.arrays[ref.Name]
	e.mu.RUnlock()
	alias := ref.Alias
	if alias == "" {
		alias = ref.Name
	}
	switch {
	case isTable:
		return newVrel(alias, t, nil), nil
	case isArray:
		return newVrel(alias, nil, a), nil
	}
	return nil, fmt.Errorf("sciql: unknown table or array %q", ref.Name)
}

// nullRow is a one-row stand-in for r whose every column is NULL: the
// group space of a global aggregate over zero rows.
func nullRow(r *vrel) *vrel {
	t := &column.Table{Name: r.alias}
	for ci, n := range r.names {
		c := column.NewEmpty(r.colKind(ci))
		c.AppendNull()
		t.Fields = append(t.Fields, column.Field{Name: n, Typ: c.Typ})
		t.Cols = append(t.Cols, c)
	}
	return &vrel{alias: r.alias, names: r.names, rows: 1, tbl: t}
}

// bindCol resolves a column reference across the relations with the
// interpreter's lookup rules and messages (a qualifier restricts to
// matching aliases; an unqualified name must be unique across all
// relations).
func bindCol(rels []*vrel, c *ColRef) (relIdx, colIdx int, err error) {
	relIdx = -1
	for ri, r := range rels {
		if c.Table != "" && r.alias != c.Table {
			continue
		}
		for ci, n := range r.names {
			if n == c.Name {
				if relIdx >= 0 {
					return 0, 0, fmt.Errorf("sciql: ambiguous column %q", c.Name)
				}
				relIdx, colIdx = ri, ci
			}
		}
	}
	switch {
	case relIdx >= 0:
		return relIdx, colIdx, nil
	case c.Table != "":
		return 0, 0, fmt.Errorf("sciql: unknown column %q.%q", c.Table, c.Name)
	}
	return 0, 0, fmt.Errorf("sciql: unknown column %q", c.Name)
}

// colAcc reads one bound column: a table column, a virtual array
// dimension, or an array value plane.
type colAcc struct {
	kind   vkind
	rel    int
	col    *column.Column // table columns
	img    *array.Array   // array value planes
	stride int            // virtual dims: value = base/stride % size
	size   int
}

func mkAcc(rels []*vrel, relIdx, colIdx int) *colAcc {
	r := rels[relIdx]
	acc := &colAcc{kind: r.colKind(colIdx), rel: relIdx}
	switch nd := r.nd(); {
	case r.tbl != nil:
		acc.col = r.tbl.Cols[colIdx]
	case colIdx < nd:
		acc.stride, acc.size = r.strides[colIdx], r.arr.Dims[colIdx].Size
	default:
		acc.img = r.arr.Values[r.arr.order[colIdx-nd]]
	}
	return acc
}

// vctx is the execution context: relations plus the solution-to-base-row
// mapping (nil mapping = identity).
type vctx struct {
	rels []*vrel
	pos  [][]int32
	n    int
	// ident caches the materialized identity selection.
	ident []int32
}

// full materializes sel (nil meaning the whole solution range).
func (x *vctx) full(sel []int32) []int32 {
	if sel != nil {
		return sel
	}
	if x.ident == nil {
		x.ident = make([]int32, x.n)
		for i := range x.ident {
			x.ident[i] = int32(i)
		}
	}
	return x.ident
}

func (x *vctx) selLen(sel []int32) int {
	if sel == nil {
		return x.n
	}
	return len(sel)
}

// solAt is the solution id at position i of sel.
func solAt(sel []int32, i int) int32 {
	if sel == nil {
		return int32(i)
	}
	return sel[i]
}

// base maps a solution id to the accessor's relation base row.
func (a *colAcc) base(x *vctx, sol int32) int32 {
	if p := x.pos[a.rel]; p != nil {
		return p[sol]
	}
	return sol
}

// load evaluates the column over sel into a fresh vec.
func (a *colAcc) load(x *vctx, sel []int32) *vec {
	sel = x.full(sel)
	out := newVec(a.kind, len(sel))
	switch {
	case a.col != nil:
		c := a.col
		switch a.kind {
		case kInt:
			src := c.Ints()
			for i, sol := range sel {
				out.i[i] = src[a.base(x, sol)]
			}
		case kFloat:
			src := c.Floats()
			for i, sol := range sel {
				out.f[i] = src[a.base(x, sol)]
			}
		case kStr:
			src := c.Strs()
			for i, sol := range sel {
				out.s[i] = src[a.base(x, sol)]
			}
		case kBool:
			src := c.Bools()
			for i, sol := range sel {
				out.b[i] = src[a.base(x, sol)]
			}
		}
		// NULL slots hold the zero value (columns are built with
		// AppendNull, so downstream raw readers see zeros either way).
		for i, sol := range sel {
			if c.IsNull(int(a.base(x, sol))) {
				out.setNull(i)
				switch a.kind {
				case kInt:
					out.i[i] = 0
				case kFloat:
					out.f[i] = 0
				case kStr:
					out.s[i] = ""
				case kBool:
					out.b[i] = false
				}
			}
		}
	case a.img != nil:
		img := a.img
		for i, sol := range sel {
			b := a.base(x, sol)
			if img.IsNull(int(b)) {
				out.setNull(i)
				continue
			}
			out.f[i] = img.Data[b]
		}
	default: // virtual dimension
		stride, size := int32(a.stride), int32(a.size)
		for i, sol := range sel {
			out.i[i] = int64(a.base(x, sol) / stride % size)
		}
	}
	return out
}

// intBase returns the exact int64 value and validity at a base row
// (kInt accessors only).
func (a *colAcc) intBase(b int32) (int64, bool) {
	if a.col != nil {
		if a.col.IsNull(int(b)) {
			return 0, false
		}
		return a.col.Int(int(b)), true
	}
	return int64(b / int32(a.stride) % int32(a.size)), true
}

// numBase returns the numeric value and validity at a base row without
// materialising a vec (numeric accessors only).
func (a *colAcc) numBase(b int32) (float64, bool) {
	switch {
	case a.col != nil:
		if a.col.IsNull(int(b)) {
			return 0, false
		}
		if a.kind == kInt {
			return float64(a.col.Int(int(b))), true
		}
		return a.col.Float(int(b)), true
	case a.img != nil:
		if a.img.IsNull(int(b)) {
			return 0, false
		}
		return a.img.Data[b], true
	default:
		return float64(b / int32(a.stride) % int32(a.size)), true
	}
}

// kernel evaluates one expression over a selection.
type kernel struct {
	kind vkind
	// null marks a kernel whose every value is NULL: a NULL literal, an
	// operation over one, or a type error. Like the interpreter, an
	// operation over it yields NULL before any type check.
	null bool
	eval func(x *vctx, sel []int32) (*vec, error)
}

// pfilter evaluates a predicate over sel (nil = full range), returning
// the INDICES within sel of the rows where it is true (NULL and false
// rows are dropped, as the interpreter's evalBool did).
type pfilter func(x *vctx, sel []int32) ([]int32, error)

// gatherSel maps filter result indices back to solution ids, reusing
// the index slice.
func gatherSel(sel, idx []int32) []int32 {
	if sel == nil {
		return idx
	}
	for i, ix := range idx {
		idx[i] = sel[ix]
	}
	return idx
}

// complementIdx returns the indices of [0, n) not present in sorted idx.
func complementIdx(idx []int32, n int) []int32 {
	out := make([]int32, 0, n-len(idx))
	k := 0
	for i := int32(0); i < int32(n); i++ {
		if k < len(idx) && idx[k] == i {
			k++
			continue
		}
		out = append(out, i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Stages and error order

// runFilters applies the WHERE filters left to right.
func runFilters(x *vctx, sel []int32, filters []pfilter) ([]int32, error) {
	in := sel
	for _, f := range filters {
		idx, err := f(x, sel)
		if err != nil {
			return nil, replay(x, in, filters, nil, err)
		}
		sel = gatherSel(sel, idx)
	}
	return sel, nil
}

// evalKernels evaluates a stage of kernels (a SELECT's items, an
// UPDATE's SET list, a GROUP BY key list) over sel.
func evalKernels(x *vctx, sel []int32, ks []*kernel) ([]*vec, error) {
	out := make([]*vec, len(ks))
	for i, k := range ks {
		v, err := k.eval(x, sel)
		if err != nil {
			return nil, replay(x, sel, nil, ks, err)
		}
		out[i] = v
	}
	return out, nil
}

// replay re-runs a failed stage one solution at a time, in row order —
// the filters, a solution ending where one drops it, then the kernels —
// and returns the first error that order meets: the one the interpreter
// reported. fallback is the columnar pass's error.
func replay(x *vctx, sel []int32, filters []pfilter, ks []*kernel, fallback error) error {
	for _, s := range x.full(sel) {
		one := []int32{s}
		kept := true
		for _, f := range filters {
			idx, err := f(x, one)
			if err != nil {
				return err
			}
			if kept = len(idx) > 0; !kept {
				break
			}
		}
		for _, k := range ks {
			if !kept {
				break
			}
			if _, err := k.eval(x, one); err != nil {
				return err
			}
		}
	}
	return fallback
}

// ---------------------------------------------------------------------------
// Expression compilation

type vcompiler struct {
	rels []*vrel
	// outside marks INSERT's VALUES, where a column reference fails.
	outside bool
	// aggs, set while compiling an aggregate query's items over the group
	// space, turns aggregate calls into columns.
	aggs *aggSet
}

func (vc *vcompiler) kernel(e Expr) *kernel {
	switch t := e.(type) {
	case *Literal:
		return constKernel(t.Value)
	case *ColRef:
		if vc.outside {
			return nullKernel(fmt.Errorf("sciql: column %q referenced outside a query", t.Name))
		}
		ri, ci, err := bindCol(vc.rels, t)
		if err != nil {
			return nullKernel(err)
		}
		acc := mkAcc(vc.rels, ri, ci)
		return &kernel{kind: acc.kind, eval: func(x *vctx, sel []int32) (*vec, error) { return acc.load(x, sel), nil }}
	case *BinaryExpr:
		return vc.binary(t)
	case *UnaryExpr:
		return vc.unary(t)
	case *CallExpr:
		return vc.call(t)
	case *BetweenExpr:
		return vc.between(t)
	case *CaseExpr:
		return vc.caseExpr(t)
	case *IsNullExpr:
		inner := vc.kernel(t.X)
		not := t.Not
		return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
			iv, err := inner.eval(x, sel)
			if err != nil {
				return nil, err
			}
			out := newVec(kBool, iv.len())
			for i := range out.b {
				out.b[i] = iv.isNull(i) != not
			}
			return out, nil
		}}
	case *InExpr:
		return vc.inExpr(t)
	}
	return nullKernel(fmt.Errorf("sciql: unsupported expression %T", e))
}

// nullKernel evaluates its operands and yields NULL. With a non-nil err
// it is a type error: it fails with err on the first row whose operands
// are all non-NULL (the first row at all when it has none).
func nullKernel(err error, operands ...*kernel) *kernel {
	return &kernel{kind: kFloat, null: true, eval: func(x *vctx, sel []int32) (*vec, error) {
		vs, e := evalArgs(x, sel, operands)
		if e != nil {
			return nil, e
		}
		n := x.selLen(sel)
		if err != nil {
		rows:
			for i := 0; i < n; i++ {
				for _, v := range vs {
					if v.isNull(i) {
						continue rows
					}
				}
				return nil, err
			}
		}
		return nullVec(n), nil
	}}
}

func evalArgs(x *vctx, sel []int32, ks []*kernel) ([]*vec, error) {
	vs := make([]*vec, len(ks))
	for i, k := range ks {
		v, err := k.eval(x, sel)
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return vs, nil
}

func anyNull(ks ...*kernel) bool {
	for _, k := range ks {
		if k.null {
			return true
		}
	}
	return false
}

func constKernel(val any) *kernel {
	var kind vkind
	switch val.(type) {
	case int64:
		kind = kInt
	case float64:
		kind = kFloat
	case string:
		kind = kStr
	case bool:
		kind = kBool
	default:
		return nullKernel(nil)
	}
	return &kernel{kind: kind, eval: func(x *vctx, sel []int32) (*vec, error) {
		out := newVec(kind, x.selLen(sel))
		switch v := val.(type) {
		case int64:
			for i := range out.i {
				out.i[i] = v
			}
		case float64:
			for i := range out.f {
				out.f[i] = v
			}
		case string:
			for i := range out.s {
				out.s[i] = v
			}
		case bool:
			for i := range out.b {
				out.b[i] = v
			}
		}
		return out, nil
	}}
}

// binaryTypeError reports, with the interpreter's message, an operator
// its operand kinds do not admit.
func binaryTypeError(op string, l, r vkind) error {
	switch {
	case l == kStr && r == kStr:
		if isCmpOp(op) {
			return nil
		}
		return fmt.Errorf("sciql: operator %q not defined on strings", op)
	case l == kBool && r == kBool:
		if op == "=" || op == "<>" {
			return nil
		}
		return fmt.Errorf("sciql: operator %q not defined on booleans", op)
	case isNumKind(l) && isNumKind(r):
		return nil
	}
	return fmt.Errorf("sciql: operator %q not defined on %s and %s", op, goType(l), goType(r))
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (vc *vcompiler) binary(t *BinaryExpr) *kernel {
	if t.Op == "AND" || t.Op == "OR" {
		return vc.logicalValue(t)
	}
	l, r := vc.kernel(t.Left), vc.kernel(t.Right)
	op := t.Op
	switch {
	case anyNull(l, r):
		return nullKernel(nil, l, r)
	case op == "||":
		return concatKernel(l, r)
	}
	if err := binaryTypeError(op, l.kind, r.kind); err != nil {
		return nullKernel(err, l, r)
	}
	if isCmpOp(op) {
		return compareKernel(op, l, r)
	}
	return arithKernel(op, l, r)
}

// concatKernel is `||`: like the interpreter it stringifies any kind.
func concatKernel(l, r *kernel) *kernel {
	str := func(v *vec, i int) string {
		if v.kind == kStr {
			return v.s[i]
		}
		return fmt.Sprint(v.value(i))
	}
	return &kernel{kind: kStr, eval: func(x *vctx, sel []int32) (*vec, error) {
		lv, rv, err := evalPair(l, r, x, sel)
		if err != nil {
			return nil, err
		}
		out := newVec(kStr, lv.len())
		for i := range out.s {
			if lv.isNull(i) || rv.isNull(i) {
				out.setNull(i)
				continue
			}
			out.s[i] = str(lv, i) + str(rv, i)
		}
		return out, nil
	}}
}

func evalPair(l, r *kernel, x *vctx, sel []int32) (*vec, *vec, error) {
	lv, err := l.eval(x, sel)
	if err != nil {
		return nil, nil, err
	}
	rv, err := r.eval(x, sel)
	if err != nil {
		return nil, nil, err
	}
	return lv, rv, nil
}

// cmpAt compares l[i] with r[j], both non-NULL and of admissible kinds:
// -1, 0, 1, or 2 when a NaN leaves the floats unordered. Two integers
// compare exactly, as the interpreter kept int/int comparisons in int64.
func cmpAt(l *vec, i int, r *vec, j int) int {
	switch {
	case l.kind == kInt && r.kind == kInt:
		return cmp3Int(l.i[i], r.i[j])
	case l.kind == kStr:
		return strings.Compare(l.s[i], r.s[j])
	case l.kind == kBool:
		return cmp3Bool(l.b[i], r.b[j])
	}
	return cmp3Float(l.numAt(i), r.numAt(j))
}

func compareKernel(op string, l, r *kernel) *kernel {
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		lv, rv, err := evalPair(l, r, x, sel)
		if err != nil {
			return nil, err
		}
		out := newVec(kBool, lv.len())
		for i := range out.b {
			if lv.isNull(i) || rv.isNull(i) {
				out.setNull(i)
				continue
			}
			out.b[i] = cmpOpHolds(op, cmpAt(lv, i, rv, i))
		}
		return out, nil
	}}
}

func cmp3Int(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmp3Float(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	return 2 // NaN: no comparison holds except <>
}

func cmp3Bool(a, b bool) int {
	if a == b {
		return 0
	}
	return 1
}

func cmpOpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c == -1
	case "<=":
		return c == -1 || c == 0
	case ">":
		return c == 1
	case ">=":
		return c == 1 || c == 0
	}
	return false
}

func arithKernel(op string, l, r *kernel) *kernel {
	bothInt := l.kind == kInt && r.kind == kInt
	kind := kFloat
	if bothInt {
		kind = kInt
	}
	return &kernel{kind: kind, eval: func(x *vctx, sel []int32) (*vec, error) {
		lv, rv, err := evalPair(l, r, x, sel)
		if err != nil {
			return nil, err
		}
		n := lv.len()
		out := newVec(kind, n)
		for i := 0; i < n; i++ {
			if lv.isNull(i) || rv.isNull(i) {
				out.setNull(i)
				continue
			}
			if bothInt {
				a, b := lv.i[i], rv.i[i]
				switch op {
				case "+":
					out.i[i] = a + b
				case "-":
					out.i[i] = a - b
				case "*":
					out.i[i] = a * b
				case "/":
					if b == 0 {
						return nil, fmt.Errorf("sciql: division by zero")
					}
					out.i[i] = a / b
				case "%":
					if b == 0 {
						return nil, fmt.Errorf("sciql: modulo by zero")
					}
					out.i[i] = a % b
				}
				continue
			}
			a, b := lv.numAt(i), rv.numAt(i)
			switch op {
			case "+":
				out.f[i] = a + b
			case "-":
				out.f[i] = a - b
			case "*":
				out.f[i] = a * b
			case "/":
				if b == 0 {
					return nil, fmt.Errorf("sciql: division by zero")
				}
				out.f[i] = a / b
			case "%":
				if b == 0 {
					return nil, fmt.Errorf("sciql: modulo by zero")
				}
				out.f[i] = math.Mod(a, b)
			}
		}
		return out, nil
	}}
}

func (vc *vcompiler) unary(t *UnaryExpr) *kernel {
	inner := vc.kernel(t.X)
	if inner.null {
		return nullKernel(nil, inner)
	}
	kind := inner.kind
	switch {
	case t.Op == "-" && !isNumKind(kind):
		return nullKernel(fmt.Errorf("sciql: unary minus on %s", goType(kind)), inner)
	case t.Op == "NOT" && kind != kBool:
		return nullKernel(fmt.Errorf("sciql: NOT on %s", goType(kind)), inner)
	}
	return &kernel{kind: kind, eval: func(x *vctx, sel []int32) (*vec, error) {
		iv, err := inner.eval(x, sel)
		if err != nil {
			return nil, err
		}
		out := newVec(kind, iv.len())
		out.null = iv.null
		switch kind {
		case kInt:
			for i, v := range iv.i {
				out.i[i] = -v
			}
		case kFloat:
			for i, v := range iv.f {
				out.f[i] = -v
			}
		default:
			for i, v := range iv.b {
				out.b[i] = !v
			}
		}
		return out, nil
	}}
}

// logicalValue compiles AND/OR used as a value; like the interpreter it
// collapses NULL to false and short-circuits, so the right side only
// runs on rows the left side did not decide.
func (vc *vcompiler) logicalValue(t *BinaryExpr) *kernel {
	lf, rf := vc.pred(t.Left), vc.pred(t.Right)
	isAnd := t.Op == "AND"
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		n := x.selLen(sel)
		out := newVec(kBool, n)
		ltrue, err := lf(x, sel)
		if err != nil {
			return nil, err
		}
		sel = x.full(sel)
		if isAnd {
			// Right side evaluated only where the left was true.
			sub := make([]int32, len(ltrue))
			for i, ix := range ltrue {
				sub[i] = sel[ix]
			}
			rtrue, err := rf(x, sub)
			if err != nil {
				return nil, err
			}
			for _, j := range rtrue {
				out.b[ltrue[j]] = true
			}
			return out, nil
		}
		for _, ix := range ltrue {
			out.b[ix] = true
		}
		rest := complementIdx(ltrue, n)
		sub := make([]int32, len(rest))
		for i, ix := range rest {
			sub[i] = sel[ix]
		}
		rtrue, err := rf(x, sub)
		if err != nil {
			return nil, err
		}
		for _, j := range rtrue {
			out.b[rest[j]] = true
		}
		return out, nil
	}}
}

// between compiles `x [NOT] BETWEEN lo AND hi` the interpreter's way:
// all three operands evaluate, any NULL makes the row NULL, then both
// comparisons run.
func (vc *vcompiler) between(t *BetweenExpr) *kernel {
	xk, lok, hik := vc.kernel(t.X), vc.kernel(t.Lo), vc.kernel(t.Hi)
	ks := []*kernel{xk, lok, hik}
	if anyNull(ks...) {
		return nullKernel(nil, ks...)
	}
	if err := binaryTypeError(">=", xk.kind, lok.kind); err != nil {
		return nullKernel(err, ks...)
	}
	if err := binaryTypeError("<=", xk.kind, hik.kind); err != nil {
		return nullKernel(err, ks...)
	}
	not := t.Not
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		vs, err := evalArgs(x, sel, ks)
		if err != nil {
			return nil, err
		}
		xv, lv, hv := vs[0], vs[1], vs[2]
		out := newVec(kBool, xv.len())
		for i := range out.b {
			if xv.isNull(i) || lv.isNull(i) || hv.isNull(i) {
				out.setNull(i)
				continue
			}
			in := cmpOpHolds(">=", cmpAt(xv, i, lv, i)) && cmpOpHolds("<=", cmpAt(xv, i, hv, i))
			out.b[i] = in != not
		}
		return out, nil
	}}
}

// caseExpr compiles CASE. Its kind is its arms' kind, NULL arms aside: a
// CASE with BIGINT and DOUBLE arms is DOUBLE, and arms of other mixed
// kinds are a type error.
func (vc *vcompiler) caseExpr(t *CaseExpr) *kernel {
	type arm struct {
		cond pfilter
		then *kernel
	}
	arms := make([]arm, 0, len(t.Whens))
	var kind vkind
	merge := func(k *kernel) error {
		switch {
		case k.null || k.kind == kind:
		case kind == 0:
			kind = k.kind
		case isNumKind(kind) && isNumKind(k.kind):
			kind = kFloat
		default:
			return fmt.Errorf("sciql: CASE arms mix %s and %s", kind, k.kind)
		}
		return nil
	}
	for _, w := range t.Whens {
		th := vc.kernel(w.Then)
		if err := merge(th); err != nil {
			return nullKernel(err)
		}
		arms = append(arms, arm{cond: vc.pred(w.Cond), then: th})
	}
	var elseK *kernel
	if t.Else != nil {
		elseK = vc.kernel(t.Else)
		if err := merge(elseK); err != nil {
			return nullKernel(err)
		}
	}
	null := kind == 0
	if null {
		kind = kFloat
	}
	return &kernel{kind: kind, null: null, eval: func(x *vctx, sel []int32) (*vec, error) {
		n := x.selLen(sel)
		out := newVec(kind, n)
		curSel := x.full(sel)
		// curSlot[i] is the output slot of curSel[i].
		curSlot := make([]int32, n)
		for i := range curSlot {
			curSlot[i] = int32(i)
		}
		scatter := func(k *kernel, subSel []int32, slots []int32) error {
			v, err := k.eval(x, subSel)
			if err != nil {
				return err
			}
			for i, slot := range slots {
				if v.isNull(i) {
					out.setNull(int(slot))
					continue
				}
				switch kind {
				case kInt:
					out.i[slot] = v.i[i]
				case kFloat:
					out.f[slot] = v.numAt(i)
				case kStr:
					out.s[slot] = v.s[i]
				case kBool:
					out.b[slot] = v.b[i]
				}
			}
			return nil
		}
		for _, a := range arms {
			if len(curSel) == 0 {
				break
			}
			matched, err := a.cond(x, curSel)
			if err != nil {
				return nil, err
			}
			mSel := make([]int32, len(matched))
			mSlot := make([]int32, len(matched))
			for i, ix := range matched {
				mSel[i], mSlot[i] = curSel[ix], curSlot[ix]
			}
			if err := scatter(a.then, mSel, mSlot); err != nil {
				return nil, err
			}
			rest := complementIdx(matched, len(curSel))
			nSel := make([]int32, len(rest))
			nSlot := make([]int32, len(rest))
			for i, ix := range rest {
				nSel[i], nSlot[i] = curSel[ix], curSlot[ix]
			}
			curSel, curSlot = nSel, nSlot
		}
		if len(curSel) > 0 {
			if elseK != nil {
				if err := scatter(elseK, curSel, curSlot); err != nil {
					return nil, err
				}
			} else {
				for _, slot := range curSlot {
					out.setNull(int(slot))
				}
			}
		}
		return out, nil
	}}
}

// inExpr compiles `x [NOT] IN (list)`. Like the interpreter it walks the
// list in order per row: a NULL x skips the list, an element evaluates
// only on rows no earlier element matched, and a NULL element never
// matches.
func (vc *vcompiler) inExpr(t *InExpr) *kernel {
	xk := vc.kernel(t.X)
	if xk.null {
		return nullKernel(nil, xk)
	}
	elems := make([]*kernel, len(t.List))
	errs := make([]error, len(t.List))
	for j, le := range t.List {
		elems[j] = vc.kernel(le)
		if !elems[j].null {
			errs[j] = binaryTypeError("=", xk.kind, elems[j].kind)
		}
	}
	not := t.Not
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		xv, err := xk.eval(x, sel)
		if err != nil {
			return nil, err
		}
		full := x.full(sel)
		out := newVec(kBool, xv.len())
		// open lists the positions still undecided.
		var open []int32
		for i := range out.b {
			if xv.isNull(i) {
				out.setNull(i)
			} else {
				out.b[i] = not
				open = append(open, int32(i))
			}
		}
		for j, ek := range elems {
			if len(open) == 0 {
				break
			}
			sub := make([]int32, len(open))
			for i, p := range open {
				sub[i] = full[p]
			}
			ev, err := ek.eval(x, sub)
			if err != nil {
				return nil, err
			}
			rest := open[:0]
			for i, p := range open {
				switch {
				case ev.isNull(i):
				case errs[j] != nil:
					return nil, errs[j]
				case cmpAt(xv, int(p), ev, i) == 0:
					out.b[p] = !not
					continue
				}
				rest = append(rest, p)
			}
			open = rest
		}
		return out, nil
	}}
}

func (vc *vcompiler) call(t *CallExpr) *kernel {
	if vc.aggs != nil && isAggregate(t.Name) {
		return vc.aggs.column(t)
	}
	args := make([]*kernel, len(t.Args))
	for i, a := range t.Args {
		args[i] = vc.kernel(a)
	}
	if anyNull(args...) {
		return nullKernel(nil, args...)
	}
	return scalarCallKernel(t.Name, args)
}

// scalarKind types a scalar function call, checking it the way the
// interpreter did and returning its error for an ill-typed call. Outside
// an aggregate query's items an aggregate name is an unknown function.
func scalarKind(name string, args []*kernel) (vkind, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sciql: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	allNum := func() bool {
		for _, a := range args {
			if !isNumKind(a.kind) {
				return false
			}
		}
		return true
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return 0, err
		}
		if !allNum() {
			return 0, fmt.Errorf("sciql: abs expects a number")
		}
		return args[0].kind, nil
	case "sqrt", "log", "exp", "floor", "ceil", "ceiling", "round":
		if err := need(1); err != nil {
			return 0, err
		}
		if !allNum() {
			return 0, fmt.Errorf("sciql: %s expects a numeric argument, got %s", name, goType(args[0].kind))
		}
		if name == "sqrt" || name == "log" || name == "exp" {
			return kFloat, nil
		}
		return kInt, nil
	case "power", "pow":
		if err := need(2); err != nil {
			return 0, err
		}
		if !allNum() {
			return 0, fmt.Errorf("sciql: power expects numbers")
		}
		return kFloat, nil
	case "mod":
		if err := need(2); err != nil {
			return 0, err
		}
		if err := binaryTypeError("%", args[0].kind, args[1].kind); err != nil {
			return 0, err
		}
	case "greatest", "least":
		if len(args) < 1 {
			return 0, fmt.Errorf("sciql: %s needs at least one argument", name)
		}
		if !allNum() {
			return 0, fmt.Errorf("sciql: %s expects numbers", name)
		}
	case "lower", "upper", "length":
		if err := need(1); err != nil {
			return 0, err
		}
		if args[0].kind != kStr {
			return 0, fmt.Errorf("sciql: %s expects a string", name)
		}
		if name == "length" {
			return kInt, nil
		}
		return kStr, nil
	default:
		return 0, fmt.Errorf("sciql: unknown function %q", name)
	}
	// mod, greatest, least: BIGINT over BIGINT arguments only.
	for _, a := range args {
		if a.kind != kInt {
			return kFloat, nil
		}
	}
	return kInt, nil
}

func scalarCallKernel(name string, args []*kernel) *kernel {
	outKind, err := scalarKind(name, args)
	if err != nil {
		return nullKernel(err, args...)
	}
	return &kernel{kind: outKind, eval: func(x *vctx, sel []int32) (*vec, error) {
		vecs, err := evalArgs(x, sel, args)
		if err != nil {
			return nil, err
		}
		n := x.selLen(sel)
		out := newVec(outKind, n)
	rows:
		for i := 0; i < n; i++ {
			for _, v := range vecs {
				if v.isNull(i) {
					out.setNull(i)
					continue rows
				}
			}
			switch name {
			case "abs":
				if outKind == kInt {
					v := vecs[0].i[i]
					if v < 0 {
						v = -v
					}
					out.i[i] = v
				} else {
					out.f[i] = math.Abs(vecs[0].f[i])
				}
			case "sqrt":
				f := vecs[0].numAt(i)
				if f < 0 {
					return nil, fmt.Errorf("sciql: sqrt of negative value")
				}
				out.f[i] = math.Sqrt(f)
			case "log":
				f := vecs[0].numAt(i)
				if f <= 0 {
					return nil, fmt.Errorf("sciql: log of non-positive value")
				}
				out.f[i] = math.Log(f)
			case "exp":
				out.f[i] = math.Exp(vecs[0].numAt(i))
			case "floor":
				out.i[i] = int64(math.Floor(vecs[0].numAt(i)))
			case "ceil", "ceiling":
				out.i[i] = int64(math.Ceil(vecs[0].numAt(i)))
			case "round":
				out.i[i] = int64(math.Round(vecs[0].numAt(i)))
			case "power", "pow":
				out.f[i] = math.Pow(vecs[0].numAt(i), vecs[1].numAt(i))
			case "mod":
				if outKind == kInt {
					b := vecs[1].i[i]
					if b == 0 {
						return nil, fmt.Errorf("sciql: modulo by zero")
					}
					out.i[i] = vecs[0].i[i] % b
				} else {
					b := vecs[1].numAt(i)
					if b == 0 {
						return nil, fmt.Errorf("sciql: modulo by zero")
					}
					out.f[i] = math.Mod(vecs[0].numAt(i), b)
				}
			case "greatest", "least":
				best := vecs[0].numAt(i)
				for _, v := range vecs[1:] {
					f := v.numAt(i)
					if name == "greatest" && f > best || name == "least" && f < best {
						best = f
					}
				}
				if outKind == kInt {
					out.i[i] = int64(best)
				} else {
					out.f[i] = best
				}
			case "lower":
				out.s[i] = strings.ToLower(vecs[0].s[i])
			case "upper":
				out.s[i] = strings.ToUpper(vecs[0].s[i])
			case "length":
				out.i[i] = int64(len(vecs[0].s[i]))
			}
		}
		return out, nil
	}}
}

// ---------------------------------------------------------------------------
// Predicate compilation (filters over selections)

// preds compiles WHERE conjuncts into filters.
func (vc *vcompiler) preds(conj []Expr) []pfilter {
	out := make([]pfilter, len(conj))
	for i, c := range conj {
		out[i] = vc.pred(c)
	}
	return out
}

func (vc *vcompiler) pred(e Expr) pfilter {
	switch t := e.(type) {
	case *BinaryExpr:
		switch t.Op {
		case "AND":
			lf, rf := vc.pred(t.Left), vc.pred(t.Right)
			return func(x *vctx, sel []int32) ([]int32, error) {
				k1, err := lf(x, sel)
				if err != nil {
					return nil, err
				}
				sel = x.full(sel)
				sub := make([]int32, len(k1))
				for i, ix := range k1 {
					sub[i] = sel[ix]
				}
				k2, err := rf(x, sub)
				if err != nil {
					return nil, err
				}
				out := k2
				for i, j := range k2 {
					out[i] = k1[j]
				}
				return out, nil
			}
		case "OR":
			lf, rf := vc.pred(t.Left), vc.pred(t.Right)
			return func(x *vctx, sel []int32) ([]int32, error) {
				k1, err := lf(x, sel)
				if err != nil {
					return nil, err
				}
				sel = x.full(sel)
				rest := complementIdx(k1, len(sel))
				sub := make([]int32, len(rest))
				for i, ix := range rest {
					sub[i] = sel[ix]
				}
				k2, err := rf(x, sub)
				if err != nil {
					return nil, err
				}
				// Merge (both ascending).
				out := make([]int32, 0, len(k1)+len(k2))
				a, b := 0, 0
				for a < len(k1) || b < len(k2) {
					switch {
					case a == len(k1):
						out = append(out, rest[k2[b]])
						b++
					case b == len(k2):
						out = append(out, k1[a])
						a++
					case k1[a] < rest[k2[b]]:
						out = append(out, k1[a])
						a++
					default:
						out = append(out, rest[k2[b]])
						b++
					}
				}
				return out, nil
			}
		case "=", "<>", "<", "<=", ">", ">=":
			if f := vc.fastCmpPred(t); f != nil {
				return f
			}
		}
	case *BetweenExpr:
		if f := vc.fastBetweenPred(t); f != nil {
			return f
		}
	case *IsNullExpr:
		if acc := vc.accOf(t.X); acc != nil {
			not := t.Not
			return func(x *vctx, sel []int32) ([]int32, error) {
				sel = x.full(sel)
				out := make([]int32, 0, len(sel))
				for i, sol := range sel {
					b := acc.base(x, sol)
					var isNull bool
					switch {
					case acc.col != nil:
						isNull = acc.col.IsNull(int(b))
					case acc.img != nil:
						isNull = acc.img.IsNull(int(b))
					}
					if isNull != not {
						out = append(out, int32(i))
					}
				}
				return out, nil
			}
		}
	}
	// Generic: evaluate as a value and keep non-NULL true booleans; any
	// non-boolean value counts as false (evalBool semantics).
	k := vc.kernel(e)
	return func(x *vctx, sel []int32) ([]int32, error) {
		v, err := k.eval(x, sel)
		if err != nil {
			return nil, err
		}
		out := make([]int32, 0, v.len())
		if v.kind != kBool {
			return out, nil
		}
		for i, b := range v.b {
			if b && !v.isNull(i) {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
}

// accOf binds a bare column reference to an accessor (nil otherwise).
func (vc *vcompiler) accOf(e Expr) *colAcc {
	cr, ok := e.(*ColRef)
	if !ok {
		return nil
	}
	ri, ci, err := bindCol(vc.rels, cr)
	if err != nil {
		return nil
	}
	return mkAcc(vc.rels, ri, ci)
}

// fastCmpPred compiles colref-vs-literal and colref-vs-colref numeric
// comparisons into direct loops (nil when the shape does not apply).
func (vc *vcompiler) fastCmpPred(t *BinaryExpr) pfilter {
	op := t.Op
	if la := vc.accOf(t.Left); la != nil {
		if lit, ok := t.Right.(*Literal); ok {
			return vc.accLitPred(la, op, lit.Value)
		}
		if ra := vc.accOf(t.Right); ra != nil && isNumKind(la.kind) && isNumKind(ra.kind) {
			// Two integer columns compare exactly (beyond 2^53 float
			// compares diverge from the interpreter's int64 ones).
			if la.kind == kInt && ra.kind == kInt {
				return func(x *vctx, sel []int32) ([]int32, error) {
					sel = x.full(sel)
					out := make([]int32, 0, len(sel))
					for i, sol := range sel {
						a, okA := la.intBase(la.base(x, sol))
						b, okB := ra.intBase(ra.base(x, sol))
						if okA && okB && cmpOpHolds(op, cmp3Int(a, b)) {
							out = append(out, int32(i))
						}
					}
					return out, nil
				}
			}
			return func(x *vctx, sel []int32) ([]int32, error) {
				sel = x.full(sel)
				out := make([]int32, 0, len(sel))
				for i, sol := range sel {
					a, okA := la.numBase(la.base(x, sol))
					b, okB := ra.numBase(ra.base(x, sol))
					if okA && okB && cmpOpHolds(op, cmp3Float(a, b)) {
						out = append(out, int32(i))
					}
				}
				return out, nil
			}
		}
	}
	if ra := vc.accOf(t.Right); ra != nil {
		if lit, ok := t.Left.(*Literal); ok {
			return vc.accLitPred(ra, flipCmp(op), lit.Value)
		}
	}
	return nil
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

// accLitPred compiles `col <op> literal` (nil when the kinds mix).
func (vc *vcompiler) accLitPred(acc *colAcc, op string, lit any) pfilter {
	if lit == nil {
		// NULL comparisons never hold.
		return func(x *vctx, sel []int32) ([]int32, error) {
			return []int32{}, nil
		}
	}
	switch v := lit.(type) {
	case int64, float64:
		if !isNumKind(acc.kind) {
			return nil
		}
		var fv float64
		iv, isInt := v.(int64)
		if isInt {
			fv = float64(iv)
		} else {
			fv = v.(float64)
		}
		// Integer column vs integer literal keeps exact int compares.
		if acc.kind == kInt && isInt {
			return func(x *vctx, sel []int32) ([]int32, error) {
				sel = x.full(sel)
				out := make([]int32, 0, len(sel))
				switch {
				case acc.col != nil:
					src := acc.col.Ints()
					for i, sol := range sel {
						b := acc.base(x, sol)
						if !acc.col.IsNull(int(b)) && cmpOpHolds(op, cmp3Int(src[b], iv)) {
							out = append(out, int32(i))
						}
					}
				default: // virtual dim
					stride, size := int32(acc.stride), int32(acc.size)
					for i, sol := range sel {
						b := acc.base(x, sol)
						if cmpOpHolds(op, cmp3Int(int64(b/stride%size), iv)) {
							out = append(out, int32(i))
						}
					}
				}
				return out, nil
			}
		}
		return func(x *vctx, sel []int32) ([]int32, error) {
			sel = x.full(sel)
			out := make([]int32, 0, len(sel))
			if acc.img != nil && x.pos[acc.rel] == nil {
				// Direct plane scan: the hottest shape (UPDATE/SELECT over
				// a whole array).
				data, null := acc.img.Data, acc.img.Null
				for i, sol := range sel {
					if null != nil && null[sol] {
						continue
					}
					if cmpOpHolds(op, cmp3Float(data[sol], fv)) {
						out = append(out, int32(i))
					}
				}
				return out, nil
			}
			if acc.col != nil && acc.kind == kFloat {
				src := acc.col.Floats()
				for i, sol := range sel {
					b := acc.base(x, sol)
					if !acc.col.IsNull(int(b)) && cmpOpHolds(op, cmp3Float(src[b], fv)) {
						out = append(out, int32(i))
					}
				}
				return out, nil
			}
			for i, sol := range sel {
				a, okA := acc.numBase(acc.base(x, sol))
				if okA && cmpOpHolds(op, cmp3Float(a, fv)) {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}
	case string:
		if acc.kind != kStr {
			return nil
		}
		return func(x *vctx, sel []int32) ([]int32, error) {
			sel = x.full(sel)
			out := make([]int32, 0, len(sel))
			src := acc.col.Strs()
			for i, sol := range sel {
				b := acc.base(x, sol)
				if !acc.col.IsNull(int(b)) && cmpOpHolds(op, strings.Compare(src[b], v)) {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}
	case bool:
		if acc.kind != kBool || (op != "=" && op != "<>") {
			return nil
		}
		return func(x *vctx, sel []int32) ([]int32, error) {
			sel = x.full(sel)
			out := make([]int32, 0, len(sel))
			src := acc.col.Bools()
			for i, sol := range sel {
				b := acc.base(x, sol)
				if acc.col.IsNull(int(b)) {
					continue
				}
				if (op == "=") == (src[b] == v) {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}
	}
	return nil
}

func (vc *vcompiler) fastBetweenPred(t *BetweenExpr) pfilter {
	acc := vc.accOf(t.X)
	if t.Not || acc == nil || !isNumKind(acc.kind) {
		return nil
	}
	lo, okLo := numLiteral(t.Lo)
	hi, okHi := numLiteral(t.Hi)
	if !okLo || !okHi {
		return nil
	}
	// Integer columns take exact int64 compares when both bounds are
	// integer literals; mixed bounds route to the generic BETWEEN kernel,
	// which compares each side with the interpreter's int/float rules.
	if acc.kind == kInt {
		ilo, iloInt := intLiteral(t.Lo)
		ihi, ihiInt := intLiteral(t.Hi)
		if !iloInt || !ihiInt {
			return nil
		}
		return func(x *vctx, sel []int32) ([]int32, error) {
			sel = x.full(sel)
			out := make([]int32, 0, len(sel))
			for i, sol := range sel {
				a, okA := acc.intBase(acc.base(x, sol))
				if okA && a >= ilo && a <= ihi {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}
	}
	return func(x *vctx, sel []int32) ([]int32, error) {
		sel = x.full(sel)
		out := make([]int32, 0, len(sel))
		for i, sol := range sel {
			a, okA := acc.numBase(acc.base(x, sol))
			if okA && a >= lo && a <= hi {
				out = append(out, int32(i))
			}
		}
		return out, nil
	}
}

func intLiteral(e Expr) (int64, bool) {
	l, ok := e.(*Literal)
	if !ok {
		return 0, false
	}
	v, ok := l.Value.(int64)
	return v, ok
}

func numLiteral(e Expr) (float64, bool) {
	l, ok := e.(*Literal)
	if !ok {
		return 0, false
	}
	switch v := l.Value.(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Dimension predicate pushdown

// dimRanges partitions conjuncts into dimension-range constraints over
// the first relation's index space and residual predicates. It returns
// per-dimension inclusive [lo, hi] bounds (initialised to the full
// extents) and whether any constraint was extracted.
func dimRanges(conj []Expr, rels []*vrel) (lo, hi []int, residual []Expr, constrained bool) {
	base := rels[0]
	nd := base.nd()
	lo = make([]int, nd)
	hi = make([]int, nd)
	for d := 0; d < nd; d++ {
		hi[d] = base.arr.Dims[d].Size - 1
	}
	// dimIndexOf binds a ColRef to a dimension of the shared index space.
	dimIndexOf := func(e Expr) int {
		cr, ok := e.(*ColRef)
		if !ok {
			return -1
		}
		ri, ci, err := bindCol(rels, cr)
		if err != nil {
			return -1
		}
		r := rels[ri]
		if r.arr == nil || ci >= r.nd() {
			return -1
		}
		if ri == 0 {
			return ci
		}
		// A partner relation's dimension is usable only when it addresses
		// the shared flat index identically (aligned zip, untransposed).
		if ci < nd && r.strides[ci] == base.strides[ci] && r.arr.Dims[ci].Size == base.arr.Dims[ci].Size {
			return ci
		}
		return -1
	}
	apply := func(d int, op string, f float64) {
		// Clamp far outside any dimension extent before the float→int
		// conversions below (out-of-range conversions are
		// implementation-defined); the comparisons against the existing
		// bounds make the clamped value equivalent.
		if f > 1e15 {
			f = 1e15
		} else if f < -1e15 {
			f = -1e15
		}
		switch op {
		case "=":
			v := int(f)
			if float64(v) != f { // fractional: empty
				lo[d], hi[d] = 1, 0
				return
			}
			if v > lo[d] {
				lo[d] = v
			}
			if v < hi[d] {
				hi[d] = v
			}
		case "<":
			v := int(math.Ceil(f)) - 1
			if math.Ceil(f) != f {
				v = int(math.Floor(f))
			}
			if v < hi[d] {
				hi[d] = v
			}
		case "<=":
			v := int(math.Floor(f))
			if v < hi[d] {
				hi[d] = v
			}
		case ">":
			v := int(math.Floor(f)) + 1
			if math.Floor(f) != f {
				v = int(math.Ceil(f))
			}
			if v > lo[d] {
				lo[d] = v
			}
		case ">=":
			v := int(math.Ceil(f))
			if v > lo[d] {
				lo[d] = v
			}
		}
	}
	// Only a PREFIX of pushable conjuncts is folded into ranges: the
	// interpreter evaluates conjuncts left to right per row, so a
	// dimension predicate may only jump ahead of conjuncts it already
	// preceded — otherwise an erroring residual (1/v, sqrt) would run
	// over fewer rows than the reference and data-dependent errors could
	// vanish. Everything from the first non-pushable conjunct on stays
	// residual, in order (later dim predicates still take the fast
	// comparison filters).
	for ci, c := range conj {
		pushed := false
		switch t := c.(type) {
		case *BinaryExpr:
			switch t.Op {
			case "=", "<", "<=", ">", ">=":
				if d := dimIndexOf(t.Left); d >= 0 {
					if f, ok := numLiteral(t.Right); ok {
						apply(d, t.Op, f)
						pushed = true
					}
				}
				if !pushed {
					if d := dimIndexOf(t.Right); d >= 0 {
						if f, ok := numLiteral(t.Left); ok {
							apply(d, flipCmp(t.Op), f)
							pushed = true
						}
					}
				}
			}
		case *BetweenExpr:
			if !t.Not {
				if d := dimIndexOf(t.X); d >= 0 {
					flo, okLo := numLiteral(t.Lo)
					fhi, okHi := numLiteral(t.Hi)
					if okLo && okHi {
						apply(d, ">=", flo)
						apply(d, "<=", fhi)
						pushed = true
					}
				}
			}
		}
		if !pushed {
			residual = append(residual, conj[ci:]...)
			break
		}
		constrained = true
	}
	return lo, hi, residual, constrained
}

// enumerateRanges produces the ascending selection of flat indices whose
// coordinates fall inside [lo[d], hi[d]] for every dimension.
func enumerateRanges(rel *vrel, lo, hi []int) []int32 {
	count := 1
	for d := range lo {
		if hi[d] < lo[d] {
			return []int32{}
		}
		count *= hi[d] - lo[d] + 1
	}
	if count == rel.rows {
		return nil // unconstrained
	}
	out := make([]int32, 0, count)
	if len(lo) == 2 {
		w := rel.strides[0]
		for y := lo[0]; y <= hi[0]; y++ {
			base := y * w
			for x := lo[1]; x <= hi[1]; x++ {
				out = append(out, int32(base+x))
			}
		}
		return out
	}
	idx := make([]int, len(lo))
	copy(idx, lo)
	for {
		flat := 0
		for d, v := range idx {
			flat += v * rel.strides[d]
		}
		out = append(out, int32(flat))
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
		}
		if d < 0 {
			return out
		}
	}
}

// pushdown narrows an array-based space by the WHERE's leading dimension
// predicates, returning the selection and the conjuncts left to filter.
func pushdown(x *vctx, conj []Expr) ([]int32, []Expr) {
	if len(x.rels) == 0 || x.rels[0].arr == nil || x.pos[0] != nil {
		return nil, conj
	}
	lo, hi, residual, constrained := dimRanges(conj, x.rels)
	if !constrained {
		return nil, conj
	}
	return enumerateRanges(x.rels[0], lo, hi), residual
}

// ---------------------------------------------------------------------------
// Join planning

// space builds the solution space of rels and returns the WHERE
// conjuncts left to run as filters.
func space(rels []*vrel, conj []Expr) (*vctx, []Expr, error) {
	x := &vctx{rels: rels, pos: make([][]int32, len(rels))}
	switch len(rels) {
	case 0:
		x.n = 1
		return x, conj, nil
	case 1:
		x.n = rels[0].rows
		return x, conj, nil
	case 2:
		a, b := rels[0], rels[1]
		if a.arr != nil && b.arr != nil && sameShape(a.arr, b.arr) {
			if matched, residual := vzipMatched(conj, rels); matched == a.nd() {
				x.n = a.rows
				return x, residual, nil
			}
		}
		if ca, cb, rest, ok := vEquiJoin(conj, a, b); ok {
			x.pos[0], x.pos[1] = vhashJoin(a, ca, b, cb)
			x.n = len(x.pos[0])
			return x, rest, nil
		}
	}
	// The cross product, lexicographic (the first relation outermost),
	// under the interpreter's guard: the bound is checked by division
	// before each multiply so oversized products never wrap int.
	total := 1
	for _, r := range rels {
		if r.rows != 0 && total > 50_000_000/r.rows {
			return nil, nil, fmt.Errorf("sciql: cross product too large (%d relations, over 50M rows); add an equality join predicate", len(rels))
		}
		total *= r.rows
	}
	inner := total
	for i, r := range rels {
		p := make([]int32, total)
		if total > 0 {
			inner /= r.rows
			for s := range p {
				p[s] = int32(s / inner % r.rows)
			}
		}
		x.pos[i] = p
	}
	x.n = total
	return x, conj, nil
}

// vzipMatched counts dimensions equated between two same-shaped arrays
// (the aligned-zip condition), returning the residual conjuncts.
func vzipMatched(conj []Expr, rels []*vrel) (int, []Expr) {
	a, b := rels[0], rels[1]
	isDimOf := func(c *ColRef, r *vrel) bool {
		if c.Table != "" && c.Table != r.alias {
			return false
		}
		for _, d := range r.arr.Dims {
			if d.Name == c.Name {
				return true
			}
		}
		return false
	}
	matched := map[string]bool{}
	var residual []Expr
	for _, c := range conj {
		if be, ok := c.(*BinaryExpr); ok && be.Op == "=" {
			l, lok := be.Left.(*ColRef)
			r, rok := be.Right.(*ColRef)
			if lok && rok && l.Name == r.Name &&
				(isDimOf(l, a) && isDimOf(r, b) || isDimOf(l, b) && isDimOf(r, a)) {
				matched[l.Name] = true
				continue
			}
		}
		residual = append(residual, c)
	}
	return len(matched), residual
}

// vEquiJoin finds the first `a.c1 = b.c2` conjunct (the interpreter's
// planner rule) and returns the bound column indices plus the rest.
func vEquiJoin(conj []Expr, a, b *vrel) (ca, cb int, rest []Expr, ok bool) {
	colIndex := func(r *vrel, c *ColRef) int {
		if c.Table != "" && c.Table != r.alias {
			return -1
		}
		for i, n := range r.names {
			if n == c.Name {
				return i
			}
		}
		return -1
	}
	for i, c := range conj {
		be, isBin := c.(*BinaryExpr)
		if !isBin || be.Op != "=" {
			continue
		}
		l, lok := be.Left.(*ColRef)
		r, rok := be.Right.(*ColRef)
		if !lok || !rok {
			continue
		}
		la, ra := colIndex(a, l), colIndex(a, r)
		lb, rb := colIndex(b, l), colIndex(b, r)
		ca, cb = -1, -1
		switch {
		case la >= 0 && rb >= 0 && (l.Table != "" || lb < 0) && (r.Table != "" || ra < 0):
			ca, cb = la, rb
		case lb >= 0 && ra >= 0 && (l.Table != "" || la < 0) && (r.Table != "" || rb < 0):
			ca, cb = ra, lb
		}
		if ca >= 0 && cb >= 0 {
			rest = append(append([]Expr{}, conj[:i]...), conj[i+1:]...)
			return ca, cb, rest, true
		}
	}
	return 0, 0, conj, false
}

// vhashJoin joins two relations on one column each, reproducing the
// interpreter's build/probe order exactly (build on the smaller side,
// probe in row order, matches in insertion order). The position lists
// are never nil: a nil list would read as the identity.
func vhashJoin(a *vrel, ca int, b *vrel, cb int) (lpos, rpos []int32) {
	keyVec := func(r *vrel, ci int) *vec {
		x := &vctx{rels: []*vrel{r}, pos: [][]int32{nil}, n: r.rows}
		return mkAcc([]*vrel{r}, 0, ci).load(x, nil)
	}
	ka := keyVec(a, ca)
	kb := keyVec(b, cb)
	lpos, rpos = []int32{}, []int32{}
	// The interpreter hashed `any` values: keys of different dynamic
	// types never match, so a cross-typed join yields zero rows.
	if ka.kind != kb.kind {
		return lpos, rpos
	}
	build, probe := ka, kb
	swapped := false
	if b.rows < a.rows {
		build, probe = kb, ka
		swapped = true
	}
	emit := func(i, j int32) {
		if swapped {
			i, j = j, i
		}
		lpos = append(lpos, i)
		rpos = append(rpos, j)
	}
	switch ka.kind {
	case kInt:
		hashJoinOn(build.i, probe.i, build, probe, emit)
	case kFloat:
		hashJoinOn(build.f, probe.f, build, probe, emit)
	case kStr:
		hashJoinOn(build.s, probe.s, build, probe, emit)
	case kBool:
		hashJoinOn(build.b, probe.b, build, probe, emit)
	}
	return lpos, rpos
}

func hashJoinOn[K comparable](build, probe []K, bv, pv *vec, emit func(i, j int32)) {
	ht := make(map[K][]int32, len(build))
	for i, v := range build {
		if !bv.isNull(i) {
			ht[v] = append(ht[v], int32(i))
		}
	}
	for j, v := range probe {
		if pv.isNull(j) {
			continue
		}
		for _, i := range ht[v] {
			emit(i, int32(j))
		}
	}
}

// ---------------------------------------------------------------------------
// SELECT

func (e *Engine) execSelect(s *SelectStmt) (*column.Table, error) {
	rels := make([]*vrel, len(s.From))
	for i, ref := range s.From {
		r, err := e.resolveV(ref)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	x, conj, err := space(rels, conjuncts(s.Where))
	if err != nil {
		return nil, err
	}
	vc := &vcompiler{rels: rels}
	sel, conj := pushdown(x, conj)
	if sel, err = runFilters(x, sel, vc.preds(conj)); err != nil {
		return nil, err
	}

	items := expandStars(s.Items, rels)
	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		hasAgg = hasAgg || containsAggregate(it.Expr)
	}
	var vs []*vec
	if hasAgg {
		vs, err = aggSelect(vc, x, sel, items, s.GroupBy)
	} else {
		ks := make([]*kernel, len(items))
		for i, it := range items {
			ks[i] = vc.kernel(it.Expr)
		}
		vs, err = evalKernels(x, sel, ks)
	}
	if err != nil {
		return nil, err
	}
	out := &column.Table{Name: "result"}
	for i, v := range vs {
		c := vecColumn(v)
		out.Fields = append(out.Fields, column.Field{Name: itemName(items[i], i), Typ: c.Typ})
		out.Cols = append(out.Cols, c)
	}

	if s.Distinct {
		out = distinctTable(out)
	}
	if len(s.OrderBy) > 0 {
		if err := orderTable(out, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 {
		out = out.Head(s.Limit)
	}
	return out, nil
}

func vecColumn(v *vec) *column.Column {
	var c *column.Column
	switch v.kind {
	case kInt:
		c = column.NewInt64(v.i)
	case kStr:
		c = column.NewString(v.s)
	case kBool:
		c = column.NewBool(v.b)
	default:
		c = column.NewFloat64(v.f)
	}
	if v.null != nil {
		c.AttachNulls(v.null)
	}
	return c
}

// ---------------------------------------------------------------------------
// Aggregation

// aggSelect evaluates an aggregate query's items. The solutions group by
// the GROUP BY keys in first-appearance order (one global group without
// them); each aggregate call folds into one vector over the groups; and
// the items evaluate over the group space, whose row g reads every
// relation at group g's first solution.
func aggSelect(vc *vcompiler, x *vctx, sel []int32, items []SelectItem, groupBy []Expr) ([]*vec, error) {
	keyKs := make([]*kernel, len(groupBy))
	for i, ge := range groupBy {
		keyKs[i] = vc.kernel(ge)
	}
	keys, err := evalKernels(x, sel, keyKs)
	if err != nil {
		return nil, err
	}
	n := x.selLen(sel)
	var groupOf []int32 // nil: every solution is in group 0
	var reps []int32    // each group's first solution
	nGroups := 1
	if len(groupBy) == 0 {
		if n > 0 {
			reps = []int32{solAt(sel, 0)}
		}
	} else {
		groupOf = make([]int32, n)
		byKey := make(map[string]int32, 16)
		var buf []byte
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for _, kv := range keys {
				buf = appendGroupKey(buf, kv, i)
			}
			id, ok := byKey[string(buf)]
			if !ok {
				id = int32(len(reps))
				byKey[string(buf)] = id
				reps = append(reps, solAt(sel, i))
			}
			groupOf[i] = id
		}
		nGroups = len(reps)
	}

	gx := &vctx{rels: x.rels, pos: make([][]int32, len(x.rels)), n: nGroups}
	if len(reps) < nGroups {
		// A global aggregate over zero rows: columns read NULL.
		gx.rels = make([]*vrel, len(x.rels))
		for i, r := range x.rels {
			gx.rels[i] = nullRow(r)
		}
	} else {
		for ri, rp := range x.pos {
			p := make([]int32, nGroups)
			for g, s := range reps {
				p[g] = s
				if rp != nil {
					p[g] = rp[s]
				}
			}
			gx.pos[ri] = p
		}
	}
	aggs := &aggSet{row: vc}
	gc := &vcompiler{rels: gx.rels, aggs: aggs}
	ks := make([]*kernel, len(items))
	for i, it := range items {
		ks[i] = gc.kernel(it.Expr)
	}
	for _, c := range aggs.calls {
		c.fold(x, sel, groupOf, nGroups)
	}
	return evalKernels(gx, nil, ks)
}

// aggSet collects the aggregate calls of an aggregate query's items.
type aggSet struct {
	row   *vcompiler // compiles the arguments over the solution space
	calls []*aggCall
}

// aggCall is one aggregate call: its argument over the solutions, and,
// once folded, its value per group — or, for a group whose argument
// fails, the error the interpreter met first in that group.
type aggCall struct {
	name string
	arg  *kernel // nil for count(*)
	kind vkind
	vals *vec
	errs []error // nil when no group fails
}

type aggAcc struct {
	count    int64
	sum      float64
	min, max float64
}

func isAggregate(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// column compiles an aggregate call into a column of the group space.
func (as *aggSet) column(t *CallExpr) *kernel {
	star := t.Name == "count" && t.Star
	if !star && len(t.Args) != 1 {
		return nullKernel(fmt.Errorf("sciql: %s takes exactly one argument", t.Name))
	}
	c := &aggCall{name: t.Name, kind: kInt}
	null := false
	if !star {
		c.arg = as.row.kernel(t.Args[0])
		if c.arg.kind == kStr && !c.arg.null {
			c.arg = nullKernel(fmt.Errorf("sciql: %s over non-numeric value string", t.Name), c.arg)
		}
		switch {
		case t.Name == "count":
		case c.arg.null:
			c.kind, null = kFloat, true
		case t.Name == "avg" || c.arg.kind != kInt:
			c.kind = kFloat
		}
	}
	as.calls = append(as.calls, c)
	return &kernel{kind: c.kind, null: null, eval: func(x *vctx, sel []int32) (*vec, error) {
		sel = x.full(sel)
		out := newVec(c.kind, len(sel))
		for i, g := range sel {
			switch {
			case c.errs != nil && c.errs[g] != nil:
				return nil, c.errs[g]
			case c.vals.isNull(int(g)):
				out.setNull(i)
			case c.kind == kInt:
				out.i[i] = c.vals.i[g]
			default:
				out.f[i] = c.vals.f[g]
			}
		}
		return out, nil
	}}
}

// fold computes the call's value for every group.
func (c *aggCall) fold(x *vctx, sel []int32, groupOf []int32, nGroups int) {
	accs := make([]aggAcc, nGroups)
	for g := range accs {
		accs[g] = aggAcc{min: math.Inf(1), max: math.Inf(-1)}
	}
	n := x.selLen(sel)
	switch {
	case c.arg == nil && groupOf == nil: // count(*)
		accs[0].count = int64(n)
	case c.arg == nil:
		for _, g := range groupOf {
			accs[g].count++
		}
	default:
		v, err := c.arg.eval(x, sel)
		if err == nil {
			accumulate(accs, v, groupOf)
			break
		}
		// Some group fails: fold group by group, and replay a failing
		// group row by row for the error the interpreter met first in it.
		c.errs = make([]error, nGroups)
		members := make([][]int32, nGroups)
		for i := 0; i < n; i++ {
			g := int32(0)
			if groupOf != nil {
				g = groupOf[i]
			}
			members[g] = append(members[g], solAt(sel, i))
		}
		for g, rows := range members {
			if len(rows) == 0 {
				continue
			}
			v, err := c.arg.eval(x, rows)
			if err != nil {
				c.errs[g] = replay(x, rows, nil, []*kernel{c.arg}, err)
				continue
			}
			accumulate(accs[g:g+1], v, nil)
		}
	}
	out := newVec(c.kind, nGroups)
	for g, a := range accs {
		if c.name == "count" {
			out.i[g] = a.count
			continue
		}
		if a.count == 0 {
			out.setNull(g)
			continue
		}
		var f float64
		switch c.name {
		case "avg":
			f = a.sum / float64(a.count)
		case "min":
			f = a.min
		case "max":
			f = a.max
		default:
			f = a.sum
		}
		if c.kind == kInt {
			out.i[g] = int64(f)
		} else {
			out.f[g] = f
		}
	}
	c.vals = out
}

// accumulate folds v's non-NULL values into their groups' accumulators
// (group 0 when groupOf is nil); booleans count as 1 and 0.
func accumulate(accs []aggAcc, v *vec, groupOf []int32) {
	for i, n := 0, v.len(); i < n; i++ {
		if v.isNull(i) {
			continue
		}
		var f float64
		switch v.kind {
		case kBool:
			if v.b[i] {
				f = 1
			}
		case kInt:
			f = float64(v.i[i])
		default:
			f = v.f[i]
		}
		a := &accs[0]
		if groupOf != nil {
			a = &accs[groupOf[i]]
		}
		a.count++
		a.sum += f
		if f < a.min {
			a.min = f
		}
		if f > a.max {
			a.max = f
		}
	}
}

func appendGroupKey(buf []byte, v *vec, i int) []byte {
	if v.isNull(i) {
		return append(buf, 0)
	}
	switch v.kind {
	case kInt:
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.i[i]))
	case kFloat:
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f[i]))
	case kStr:
		buf = append(buf, 3)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s[i])))
		buf = append(buf, v.s[i]...)
	case kBool:
		buf = append(buf, 4)
		if v.b[i] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE

// execInsert appends VALUES rows: each row is one row over no relation,
// and rows before a failing one stay appended.
func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return nil, err
	}
	vc := &vcompiler{outside: true}
	x := &vctx{n: 1}
	for _, row := range s.Rows {
		vals := make([]any, len(row))
		for i, expr := range row {
			v, err := vc.kernel(expr).eval(x, nil)
			if err != nil {
				return nil, err
			}
			vals[i] = v.value(0)
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// execUpdate evaluates every SET kernel over the surviving selection,
// in column-name order, then writes in one pass.
func (e *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	e.mu.RLock()
	arr, isArray := e.arrays[s.Target]
	tbl, isTable := e.tables[s.Target]
	e.mu.RUnlock()
	var rel *vrel
	switch {
	case isArray:
		rel = newVrel(s.Target, nil, arr)
	case isTable:
		rel = newVrel(s.Target, tbl, nil)
	default:
		return nil, fmt.Errorf("sciql: unknown table or array %q", s.Target)
	}
	cols := make([]string, 0, len(s.Set))
	for col := range s.Set {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		if isArray {
			if _, ok := arr.Values[col]; !ok {
				return nil, fmt.Errorf("sciql: %q is not a value attribute of array %q", col, arr.Name)
			}
		} else if tbl.Col(col) == nil {
			return nil, fmt.Errorf("sciql: table %q has no column %q", tbl.Name, col)
		}
	}

	x := &vctx{rels: []*vrel{rel}, pos: [][]int32{nil}, n: rel.rows}
	vc := &vcompiler{rels: x.rels}
	sel, conj := pushdown(x, conjuncts(s.Where))
	sel, err := runFilters(x, sel, vc.preds(conj))
	if err != nil {
		return nil, err
	}
	// A SET value the target cannot hold fails on the first row that
	// assigns a non-NULL one.
	sets := make([]*kernel, len(cols))
	for i, col := range cols {
		k := vc.kernel(s.Set[col])
		switch {
		case k.null:
		case isArray && !isNumKind(k.kind):
			k = nullKernel(fmt.Errorf("sciql: cannot assign %s to array attribute %q", goType(k.kind), col), k)
		case isTable:
			if ct := tbl.Col(col).Typ; k.kind != ct && !(isNumKind(ct) && isNumKind(k.kind)) {
				k = nullKernel(fmt.Errorf("sciql: cannot assign %s to %s", goType(k.kind), ct), k)
			}
		}
		sets[i] = k
	}
	newVals, err := evalKernels(x, sel, sets)
	if err != nil {
		return nil, err
	}
	affected := x.selLen(sel)
	sel = x.full(sel)
	for i, col := range cols {
		v := newVals[i]
		if isArray {
			img := arr.Values[col]
			for j, cell := range sel {
				if v.isNull(j) {
					if img.Null == nil {
						img.Null = make([]bool, len(img.Data))
					}
					img.Null[cell] = true
					continue
				}
				img.Data[cell] = v.numAt(j)
				if img.Null != nil {
					img.Null[cell] = false
				}
			}
			continue
		}
		c := tbl.Col(col)
		for j, row := range sel {
			if v.isNull(j) {
				c.SetNull(int(row))
				continue
			}
			// Like the interpreter's writer, a non-NULL store does not
			// clear an existing NULL flag.
			switch c.Typ {
			case column.Int64:
				if v.kind == kInt {
					c.Ints()[row] = v.i[j]
				} else {
					c.Ints()[row] = int64(v.f[j])
				}
			case column.Float64:
				c.Floats()[row] = v.numAt(j)
			case column.String:
				c.Strs()[row] = v.s[j]
			case column.Bool:
				c.Bools()[row] = v.b[j]
			}
		}
	}
	return &Result{Affected: affected}, nil
}

// execDelete removes matching rows from a table (arrays are dense; use
// UPDATE ... SET v = NULL to blank array cells instead).
func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	e.mu.RLock()
	_, isArray := e.arrays[s.Table]
	t, isTable := e.tables[s.Table]
	e.mu.RUnlock()
	if isArray {
		return nil, fmt.Errorf("sciql: DELETE applies to tables; blank array cells with UPDATE %s SET <attr> = NULL", s.Table)
	}
	if !isTable {
		return nil, fmt.Errorf("sciql: unknown table %q", s.Table)
	}
	rel := newVrel(s.Table, t, nil)
	x := &vctx{rels: []*vrel{rel}, pos: [][]int32{nil}, n: rel.rows}
	vc := &vcompiler{rels: x.rels}
	sel, err := runFilters(x, nil, vc.preds(conjuncts(s.Where)))
	if err != nil {
		return nil, err
	}
	matched := x.selLen(sel)
	sel = x.full(sel)
	keep := make([]int, 0, rel.rows-matched)
	k := 0
	for row := 0; row < rel.rows; row++ {
		if k < len(sel) && sel[k] == int32(row) {
			k++
			continue
		}
		keep = append(keep, row)
	}
	compacted := t.Gather(keep)
	e.mu.Lock()
	t.Cols = compacted.Cols
	e.mu.Unlock()
	return &Result{Affected: matched}, nil
}
