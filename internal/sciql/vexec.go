package sciql

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/array"
	"repro/internal/column"
)

// Vectorized SciQL execution. Mirroring the stSPARQL id-space executor
// (PR 2), statements are compiled into typed kernels that run over
// columnar data — table columns, array value planes and virtual dimension
// columns — guided by selection vectors, instead of boxing every cell
// into `any` and dispatching through per-row environment lookups.
//
// Core ideas:
//
//   - A solution space: for a single relation it is the row (cell) range
//     itself; for an aligned array zip both arrays share the index; for a
//     hash join it is the pair list (lpos, rpos). No [][]int combination
//     materialisation.
//   - Selection vectors: WHERE conjuncts filter an implicit [0, n) range
//     (or the previous conjunct's survivors) left to right, preserving
//     the legacy evaluator's short-circuit semantics row for row.
//   - Dimension predicate pushdown: `y BETWEEN`, `x =` and friends over
//     array dimensions become subarray index ranges enumerated directly,
//     never scanned and post-filtered.
//   - Fused UPDATE: array and table updates evaluate the SET kernels
//     over the surviving selection and write in place in one pass
//     (buffered per statement so an evaluation error leaves the target
//     untouched, exactly like the legacy two-phase writer).
//
// Anything the compiler cannot prove equivalent (ambiguous columns,
// dynamic type mixes, cross products, >2 relations, exotic expressions)
// falls back to the legacy interpreter, which remains the semantic
// reference; the randomized equivalence suite pins the two against each
// other.

type vkind uint8

const (
	kInt vkind = iota + 1
	kFloat
	kStr
	kBool
)

func kindOfType(t column.Type) vkind {
	switch t {
	case column.Int64:
		return kInt
	case column.Float64:
		return kFloat
	case column.String:
		return kStr
	case column.Bool:
		return kBool
	}
	return 0
}

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

// vrel is a resolved FROM source for the vectorized executor.
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

func (e *Engine) resolveV(ref TableRef) (*vrel, bool) {
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
		names := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			names[i] = f.Name
		}
		return &vrel{alias: alias, names: names, rows: t.NumRows(), tbl: t}, true
	case isArray:
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
		return &vrel{alias: alias, names: names, rows: a.Size(), arr: a, strides: strides}, true
	default:
		return nil, false
	}
}

// bindCol resolves a column reference across the relations with the
// legacy lookup rules (a qualifier restricts to matching aliases; an
// unqualified name must be unique across all relations).
func bindCol(rels []*vrel, c *ColRef) (relIdx, colIdx int, ok bool) {
	relIdx, colIdx = -1, -1
	for ri, r := range rels {
		if c.Table != "" && r.alias != c.Table {
			continue
		}
		for ci, n := range r.names {
			if n == c.Name {
				if relIdx >= 0 {
					return 0, 0, false // ambiguous
				}
				relIdx, colIdx = ri, ci
			}
		}
	}
	if relIdx < 0 {
		return 0, 0, false
	}
	return relIdx, colIdx, true
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
	if r.tbl != nil {
		c := r.tbl.Cols[colIdx]
		return &colAcc{kind: kindOfType(c.Typ), rel: relIdx, col: c}
	}
	nd := r.nd()
	if colIdx < nd {
		return &colAcc{kind: kInt, rel: relIdx, stride: r.strides[colIdx], size: r.arr.Dims[colIdx].Size}
	}
	img := r.arr.Values[r.arr.order[colIdx-nd]]
	return &colAcc{kind: kFloat, rel: relIdx, img: img}
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
		// NULL slots hold the zero value (legacy columns are built with
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
	kind      vkind
	isConst   bool
	constNull bool
	ci        int64
	cf        float64
	cs        string
	cb        bool
	acc       *colAcc // set for bare column references
	eval      func(x *vctx, sel []int32) (*vec, error)
}

// pfilter evaluates a predicate over sel (nil = full range), returning
// the INDICES within sel of the rows where it is true (NULL and false
// rows are dropped, matching evalBool).
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
// Expression compilation

type vcompiler struct {
	rels []*vrel
}

var errVFallback = fmt.Errorf("sciql: vectorized compile fallback")

func (vc *vcompiler) kernel(e Expr) (*kernel, error) {
	switch t := e.(type) {
	case *Literal:
		return constKernel(t.Value)
	case *ColRef:
		ri, ci, ok := bindCol(vc.rels, t)
		if !ok {
			return nil, errVFallback
		}
		acc := mkAcc(vc.rels, ri, ci)
		return &kernel{
			kind: acc.kind,
			acc:  acc,
			eval: func(x *vctx, sel []int32) (*vec, error) { return acc.load(x, sel), nil },
		}, nil
	case *BinaryExpr:
		return vc.binary(t)
	case *UnaryExpr:
		inner, err := vc.kernel(t.X)
		if err != nil {
			return nil, err
		}
		return vc.unary(t.Op, inner)
	case *CallExpr:
		return vc.call(t)
	case *BetweenExpr:
		return vc.between(t)
	case *CaseExpr:
		return vc.caseExpr(t)
	case *IsNullExpr:
		inner, err := vc.kernel(t.X)
		if err != nil {
			return nil, err
		}
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
		}}, nil
	case *InExpr:
		return vc.inExpr(t)
	}
	return nil, errVFallback
}

func constKernel(val any) (*kernel, error) {
	k := &kernel{isConst: true}
	switch v := val.(type) {
	case nil:
		k.kind, k.constNull = kFloat, true
	case int64:
		k.kind, k.ci = kInt, v
	case float64:
		k.kind, k.cf = kFloat, v
	case string:
		k.kind, k.cs = kStr, v
	case bool:
		k.kind, k.cb = kBool, v
	default:
		return nil, errVFallback
	}
	k.eval = func(x *vctx, sel []int32) (*vec, error) {
		n := x.selLen(sel)
		out := newVec(k.kind, n)
		switch {
		case k.constNull:
			out.null = make([]bool, n)
			for i := range out.null {
				out.null[i] = true
			}
		case k.kind == kInt:
			for i := range out.i {
				out.i[i] = k.ci
			}
		case k.kind == kFloat:
			for i := range out.f {
				out.f[i] = k.cf
			}
		case k.kind == kStr:
			for i := range out.s {
				out.s[i] = k.cs
			}
		case k.kind == kBool:
			for i := range out.b {
				out.b[i] = k.cb
			}
		}
		return out, nil
	}
	return k, nil
}

func isNumKind(k vkind) bool { return k == kInt || k == kFloat }

func (vc *vcompiler) binary(t *BinaryExpr) (*kernel, error) {
	if t.Op == "AND" || t.Op == "OR" {
		return vc.logicalValue(t)
	}
	l, err := vc.kernel(t.Left)
	if err != nil {
		return nil, err
	}
	r, err := vc.kernel(t.Right)
	if err != nil {
		return nil, err
	}
	op := t.Op
	switch op {
	case "||":
		// Legacy stringifies anything; only the all-string case is
		// compiled, the rest falls back.
		if l.kind != kStr || r.kind != kStr {
			return nil, errVFallback
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
				out.s[i] = lv.s[i] + rv.s[i]
			}
			return out, nil
		}}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return compareKernel(op, l, r)
	case "+", "-", "*", "/", "%":
		return arithKernel(op, l, r)
	}
	return nil, errVFallback
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

func compareKernel(op string, l, r *kernel) (*kernel, error) {
	// Static type admissibility mirrors applyBinary.
	switch {
	case isNumKind(l.kind) && isNumKind(r.kind):
	case l.kind == kStr && r.kind == kStr:
	case l.kind == kBool && r.kind == kBool:
		if op != "=" && op != "<>" {
			return nil, errVFallback
		}
	default:
		// Mixed types: legacy errors per evaluated row; a NULL literal
		// operand however compares as NULL with anything.
		if !(l.isConst && l.constNull) && !(r.isConst && r.constNull) {
			return nil, errVFallback
		}
	}
	nullConst := (l.isConst && l.constNull) || (r.isConst && r.constNull)
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		n := x.selLen(sel)
		out := newVec(kBool, n)
		// Operands always evaluate (their errors surface even when the
		// comparison result is forced NULL by a NULL literal).
		lv, rv, err := evalPair(l, r, x, sel)
		if err != nil {
			return nil, err
		}
		if nullConst {
			out.null = make([]bool, n)
			for i := range out.null {
				out.null[i] = true
			}
			return out, nil
		}
		bothInt := lv.kind == kInt && rv.kind == kInt
		for i := 0; i < n; i++ {
			if lv.isNull(i) || rv.isNull(i) {
				out.setNull(i)
				continue
			}
			var c int
			switch {
			case bothInt:
				c = cmp3Int(lv.i[i], rv.i[i])
			case lv.kind == kStr:
				c = strings.Compare(lv.s[i], rv.s[i])
			case lv.kind == kBool:
				c = cmp3Bool(lv.b[i], rv.b[i])
			default:
				c = cmp3Float(lv.numAt(i), rv.numAt(i))
			}
			out.b[i] = cmpOpHolds(op, c)
		}
		return out, nil
	}}, nil
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

func arithKernel(op string, l, r *kernel) (*kernel, error) {
	if !isNumKind(l.kind) || !isNumKind(r.kind) {
		if (l.isConst && l.constNull) || (r.isConst && r.constNull) {
			// NULL arithmetic yields NULL regardless of the other side,
			// but the other side still evaluates (its errors surface).
			return nullPropKernel(l, r), nil
		}
		return nil, errVFallback
	}
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
	}}, nil
}

// nullPropKernel yields all-NULL results after evaluating operands for
// their side effects (errors).
func nullPropKernel(operands ...*kernel) *kernel {
	k := &kernel{kind: kFloat, isConst: true, constNull: true}
	k.eval = func(x *vctx, sel []int32) (*vec, error) {
		for _, op := range operands {
			if _, err := op.eval(x, sel); err != nil {
				return nil, err
			}
		}
		n := x.selLen(sel)
		out := newVec(kFloat, n)
		out.null = make([]bool, n)
		for i := range out.null {
			out.null[i] = true
		}
		return out, nil
	}
	return k
}

func (vc *vcompiler) unary(op string, inner *kernel) (*kernel, error) {
	switch op {
	case "-":
		if !isNumKind(inner.kind) {
			if inner.isConst && inner.constNull {
				return nullPropKernel(inner), nil
			}
			return nil, errVFallback
		}
		kind := inner.kind
		return &kernel{kind: kind, eval: func(x *vctx, sel []int32) (*vec, error) {
			iv, err := inner.eval(x, sel)
			if err != nil {
				return nil, err
			}
			out := newVec(kind, iv.len())
			out.null = iv.null
			if kind == kInt {
				for i, v := range iv.i {
					out.i[i] = -v
				}
			} else {
				for i, v := range iv.f {
					out.f[i] = -v
				}
			}
			return out, nil
		}}, nil
	case "NOT":
		if inner.kind != kBool {
			if inner.isConst && inner.constNull {
				return nullPropKernel(inner), nil
			}
			return nil, errVFallback
		}
		return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
			iv, err := inner.eval(x, sel)
			if err != nil {
				return nil, err
			}
			out := newVec(kBool, iv.len())
			out.null = iv.null
			for i, v := range iv.b {
				out.b[i] = !v
			}
			return out, nil
		}}, nil
	}
	return nil, errVFallback
}

// logicalValue compiles AND/OR used as a value; like the legacy
// evaluator it collapses NULL to false and short-circuits, so the right
// side only runs on rows the left side did not decide.
func (vc *vcompiler) logicalValue(t *BinaryExpr) (*kernel, error) {
	lf, err := vc.pred(t.Left)
	if err != nil {
		return nil, err
	}
	rf, err := vc.pred(t.Right)
	if err != nil {
		return nil, err
	}
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
	}}, nil
}

func (vc *vcompiler) between(t *BetweenExpr) (*kernel, error) {
	xk, err := vc.kernel(t.X)
	if err != nil {
		return nil, err
	}
	lok, err := vc.kernel(t.Lo)
	if err != nil {
		return nil, err
	}
	hik, err := vc.kernel(t.Hi)
	if err != nil {
		return nil, err
	}
	ge, err := compareKernel(">=", xk, lok)
	if err != nil {
		return nil, err
	}
	le, err := compareKernel("<=", xk, hik)
	if err != nil {
		return nil, err
	}
	not := t.Not
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		gv, err := ge.eval(x, sel)
		if err != nil {
			return nil, err
		}
		lv, err := le.eval(x, sel)
		if err != nil {
			return nil, err
		}
		out := newVec(kBool, gv.len())
		for i := range out.b {
			// Legacy BETWEEN returns NULL only when an operand is NULL,
			// which surfaces here as a NULL comparison result.
			if gv.isNull(i) || lv.isNull(i) {
				out.setNull(i)
				continue
			}
			res := gv.b[i] && lv.b[i]
			out.b[i] = res != not
		}
		return out, nil
	}}, nil
}

func (vc *vcompiler) caseExpr(t *CaseExpr) (*kernel, error) {
	type arm struct {
		cond pfilter
		then *kernel
	}
	arms := make([]arm, 0, len(t.Whens))
	kind := vkind(0)
	merge := func(k *kernel) bool {
		if k.isConst && k.constNull {
			return true
		}
		if kind == 0 {
			kind = k.kind
			return true
		}
		return k.kind == kind
	}
	for _, w := range t.Whens {
		cf, err := vc.pred(w.Cond)
		if err != nil {
			return nil, err
		}
		th, err := vc.kernel(w.Then)
		if err != nil {
			return nil, err
		}
		if !merge(th) {
			return nil, errVFallback
		}
		arms = append(arms, arm{cond: cf, then: th})
	}
	var elseK *kernel
	if t.Else != nil {
		ek, err := vc.kernel(t.Else)
		if err != nil {
			return nil, err
		}
		if !merge(ek) {
			return nil, errVFallback
		}
		elseK = ek
	}
	if kind == 0 {
		kind = kFloat // all branches NULL
	}
	outKind := kind
	return &kernel{kind: outKind, eval: func(x *vctx, sel []int32) (*vec, error) {
		n := x.selLen(sel)
		out := newVec(outKind, n)
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
				switch outKind {
				case kInt:
					out.i[slot] = v.i[i]
				case kFloat:
					out.f[slot] = v.f[i]
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
	}}, nil
}

// inExpr compiles `x [NOT] IN (list)` for literal-only lists. The legacy
// evaluator short-circuits the list per row (elements after the first
// match never evaluate, NULL x skips the list entirely), which literal
// elements make free to replicate: they cannot fail, so only the
// type-mismatch error of `=` needs the per-row, in-order walk.
func (vc *vcompiler) inExpr(t *InExpr) (*kernel, error) {
	xk, err := vc.kernel(t.X)
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(t.List))
	for i, le := range t.List {
		lit, ok := le.(*Literal)
		if !ok {
			return nil, errVFallback
		}
		vals[i] = lit.Value
	}
	not := t.Not
	return &kernel{kind: kBool, eval: func(x *vctx, sel []int32) (*vec, error) {
		xv, err := xk.eval(x, sel)
		if err != nil {
			return nil, err
		}
		n := xv.len()
		out := newVec(kBool, n)
		decided := make([]bool, n)
		for _, val := range vals {
			if val == nil {
				continue // `x = NULL` is NULL: never a match
			}
			for i := 0; i < n; i++ {
				if decided[i] || xv.isNull(i) {
					continue
				}
				match := false
				switch lv := val.(type) {
				case int64:
					if xv.kind == kInt {
						match = xv.i[i] == lv
					} else if xv.kind == kFloat {
						match = xv.f[i] == float64(lv)
					} else {
						return nil, fmt.Errorf("sciql: operator %q not defined on %s and %T", "=", "column", val)
					}
				case float64:
					if xv.kind == kInt {
						match = float64(xv.i[i]) == lv
					} else if xv.kind == kFloat {
						match = xv.f[i] == lv
					} else {
						return nil, fmt.Errorf("sciql: operator %q not defined on %s and %T", "=", "column", val)
					}
				case string:
					if xv.kind != kStr {
						return nil, fmt.Errorf("sciql: operator %q not defined on %s and %T", "=", "column", val)
					}
					match = xv.s[i] == lv
				case bool:
					if xv.kind != kBool {
						return nil, fmt.Errorf("sciql: operator %q not defined on %s and %T", "=", "column", val)
					}
					match = xv.b[i] == lv
				}
				if match {
					decided[i] = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if xv.isNull(i) {
				out.setNull(i)
				continue
			}
			out.b[i] = decided[i] != not
		}
		return out, nil
	}}, nil
}

func (vc *vcompiler) call(t *CallExpr) (*kernel, error) {
	switch t.Name {
	case "count", "sum", "avg", "min", "max":
		return nil, errVFallback // aggregates are handled by the agg path
	}
	args := make([]*kernel, len(t.Args))
	for i, a := range t.Args {
		k, err := vc.kernel(a)
		if err != nil {
			return nil, err
		}
		args[i] = k
	}
	return scalarCallKernel(t.Name, args)
}

func scalarCallKernel(name string, args []*kernel) (*kernel, error) {
	numArgs := func(n int) bool {
		if len(args) != n {
			return false
		}
		for _, a := range args {
			if !isNumKind(a.kind) && !(a.isConst && a.constNull) {
				return false
			}
		}
		return true
	}
	var kind vkind
	switch name {
	case "abs":
		if !numArgs(1) {
			return nil, errVFallback
		}
		kind = args[0].kind
	case "sqrt", "log", "exp", "power", "pow":
		want := 1
		if name == "power" || name == "pow" {
			want = 2
		}
		if !numArgs(want) {
			return nil, errVFallback
		}
		kind = kFloat
	case "floor", "ceil", "ceiling", "round", "length":
		if name == "length" {
			if len(args) != 1 || args[0].kind != kStr {
				return nil, errVFallback
			}
		} else if !numArgs(1) {
			return nil, errVFallback
		}
		kind = kInt
	case "mod":
		if !numArgs(2) {
			return nil, errVFallback
		}
		if args[0].kind == kInt && args[1].kind == kInt {
			kind = kInt
		} else {
			kind = kFloat
		}
	case "greatest", "least":
		if len(args) < 1 || !numArgs(len(args)) {
			return nil, errVFallback
		}
		kind = kInt
		for _, a := range args {
			if a.kind != kInt {
				kind = kFloat
			}
		}
	case "lower", "upper":
		if len(args) != 1 || args[0].kind != kStr {
			return nil, errVFallback
		}
		kind = kStr
	default:
		return nil, errVFallback
	}
	outKind := kind
	return &kernel{kind: outKind, eval: func(x *vctx, sel []int32) (*vec, error) {
		vecs := make([]*vec, len(args))
		for i, a := range args {
			v, err := a.eval(x, sel)
			if err != nil {
				return nil, err
			}
			vecs[i] = v
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
	}}, nil
}

// ---------------------------------------------------------------------------
// Predicate compilation (filters over selections)

func (vc *vcompiler) pred(e Expr) (pfilter, error) {
	switch t := e.(type) {
	case *BinaryExpr:
		switch t.Op {
		case "AND":
			lf, err := vc.pred(t.Left)
			if err != nil {
				return nil, err
			}
			rf, err := vc.pred(t.Right)
			if err != nil {
				return nil, err
			}
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
			}, nil
		case "OR":
			lf, err := vc.pred(t.Left)
			if err != nil {
				return nil, err
			}
			rf, err := vc.pred(t.Right)
			if err != nil {
				return nil, err
			}
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
			}, nil
		case "=", "<>", "<", "<=", ">", ">=":
			if f, ok, err := vc.fastCmpPred(t); err != nil {
				return nil, err
			} else if ok {
				return f, nil
			}
		}
	case *BetweenExpr:
		if f, ok, err := vc.fastBetweenPred(t); err != nil {
			return nil, err
		} else if ok {
			return f, nil
		}
	case *IsNullExpr:
		if cr, ok := t.X.(*ColRef); ok {
			if ri, ci, ok := bindCol(vc.rels, cr); ok {
				acc := mkAcc(vc.rels, ri, ci)
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
				}, nil
			}
		}
	}
	// Generic: evaluate as a value and keep non-NULL true booleans; any
	// non-boolean value counts as false (evalBool semantics).
	k, err := vc.kernel(e)
	if err != nil {
		return nil, err
	}
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
	}, nil
}

// fastCmpPred compiles colref-vs-literal and colref-vs-colref numeric
// comparisons into direct loops.
func (vc *vcompiler) fastCmpPred(t *BinaryExpr) (pfilter, bool, error) {
	accOf := func(e Expr) *colAcc {
		cr, ok := e.(*ColRef)
		if !ok {
			return nil
		}
		ri, ci, ok := bindCol(vc.rels, cr)
		if !ok {
			return nil
		}
		return mkAcc(vc.rels, ri, ci)
	}
	litOf := func(e Expr) (any, bool) {
		l, ok := e.(*Literal)
		if !ok {
			return nil, false
		}
		return l.Value, true
	}
	op := t.Op
	if la := accOf(t.Left); la != nil {
		if lit, ok := litOf(t.Right); ok {
			return vc.accLitPred(la, op, lit)
		}
		if ra := accOf(t.Right); ra != nil && isNumKind(la.kind) && isNumKind(ra.kind) {
			// Two integer columns compare exactly (the generic kernel and
			// the legacy interpreter both keep int/int comparisons in
			// int64, which diverges from float compares beyond 2^53).
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
				}, true, nil
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
			}, true, nil
		}
	}
	if ra := accOf(t.Right); ra != nil {
		if lit, ok := litOf(t.Left); ok {
			return vc.accLitPred(ra, flipCmp(op), lit)
		}
	}
	return nil, false, nil
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

// accLitPred compiles `col <op> literal`.
func (vc *vcompiler) accLitPred(acc *colAcc, op string, lit any) (pfilter, bool, error) {
	if lit == nil {
		// NULL comparisons never hold.
		return func(x *vctx, sel []int32) ([]int32, error) {
			return []int32{}, nil
		}, true, nil
	}
	switch v := lit.(type) {
	case int64, float64:
		if !isNumKind(acc.kind) {
			return nil, false, nil // mixed types: generic path / fallback
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
			}, true, nil
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
			for i, sol := range sel {
				a, okA := acc.numBase(acc.base(x, sol))
				if okA && cmpOpHolds(op, cmp3Float(a, fv)) {
					out = append(out, int32(i))
				}
			}
			return out, nil
		}, true, nil
	case string:
		if acc.kind != kStr || acc.col == nil {
			return nil, false, nil
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
		}, true, nil
	case bool:
		if acc.kind != kBool || acc.col == nil || (op != "=" && op != "<>") {
			return nil, false, nil
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
		}, true, nil
	}
	return nil, false, nil
}

func (vc *vcompiler) fastBetweenPred(t *BetweenExpr) (pfilter, bool, error) {
	if t.Not {
		return nil, false, nil
	}
	cr, ok := t.X.(*ColRef)
	if !ok {
		return nil, false, nil
	}
	ri, ci, ok := bindCol(vc.rels, cr)
	if !ok {
		return nil, false, nil
	}
	acc := mkAcc(vc.rels, ri, ci)
	if !isNumKind(acc.kind) {
		return nil, false, nil
	}
	lo, okLo := numLiteral(t.Lo)
	hi, okHi := numLiteral(t.Hi)
	if !okLo || !okHi {
		return nil, false, nil
	}
	// Integer columns take exact int64 compares when both bounds are
	// integer literals; mixed bounds route to the generic BETWEEN kernel,
	// which compares each side with the legacy int/float rules.
	if acc.kind == kInt {
		ilo, iloInt := intLiteral(t.Lo)
		ihi, ihiInt := intLiteral(t.Hi)
		if !iloInt || !ihiInt {
			return nil, false, nil
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
		}, true, nil
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
	}, true, nil
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
	if base.arr == nil {
		return nil, nil, conj, false
	}
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
		ri, ci, ok := bindCol(rels, cr)
		if !ok {
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
	// legacy interpreter evaluates conjuncts left to right per row, so a
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

// ---------------------------------------------------------------------------
// Join planning

// vzipMatched counts dimensions equated between two same-shaped arrays
// (the aligned-zip condition), returning the residual conjuncts.
func vzipMatched(conj []Expr, rels []*vrel) (int, []Expr) {
	a, b := rels[0], rels[1]
	isDimOf := func(c *ColRef, r *vrel) bool {
		if r.arr == nil {
			return false
		}
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

// vEquiJoin finds the first `a.c1 = b.c2` conjunct (the legacy planner's
// rule) and returns the bound column indices plus the rest.
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
// legacy build/probe order exactly (build on the smaller side, probe in
// row order, matches in insertion order).
func vhashJoin(a *vrel, ca int, b *vrel, cb int) (lpos, rpos []int32, ok bool) {
	keyVec := func(r *vrel, ci int) *vec {
		x := &vctx{rels: []*vrel{r}, pos: [][]int32{nil}, n: r.rows}
		return mkAcc([]*vrel{r}, 0, ci).load(x, nil)
	}
	ka := keyVec(a, ca)
	kb := keyVec(b, cb)
	// Legacy hashes `any` values: keys of different dynamic types never
	// match, so a cross-typed join legitimately yields zero rows.
	if ka.kind != kb.kind {
		return nil, nil, true
	}
	build, probe := ka, kb
	swapped := false
	if b.rows < a.rows {
		build, probe = kb, ka
		swapped = true
	}
	emit := func(i, j int32) {
		if swapped {
			lpos = append(lpos, j)
			rpos = append(rpos, i)
		} else {
			lpos = append(lpos, i)
			rpos = append(rpos, j)
		}
	}
	switch ka.kind {
	case kInt:
		ht := make(map[int64][]int32, build.len())
		for i, v := range build.i {
			if !build.isNull(i) {
				ht[v] = append(ht[v], int32(i))
			}
		}
		for j, v := range probe.i {
			if probe.isNull(j) {
				continue
			}
			for _, i := range ht[v] {
				emit(i, int32(j))
			}
		}
	case kFloat:
		ht := make(map[float64][]int32, build.len())
		for i, v := range build.f {
			if !build.isNull(i) {
				ht[v] = append(ht[v], int32(i))
			}
		}
		for j, v := range probe.f {
			if probe.isNull(j) {
				continue
			}
			for _, i := range ht[v] {
				emit(i, int32(j))
			}
		}
	case kStr:
		ht := make(map[string][]int32, build.len())
		for i, v := range build.s {
			if !build.isNull(i) {
				ht[v] = append(ht[v], int32(i))
			}
		}
		for j, v := range probe.s {
			if probe.isNull(j) {
				continue
			}
			for _, i := range ht[v] {
				emit(i, int32(j))
			}
		}
	case kBool:
		ht := map[bool][]int32{}
		for i, v := range build.b {
			if !build.isNull(i) {
				ht[v] = append(ht[v], int32(i))
			}
		}
		for j, v := range probe.b {
			if probe.isNull(j) {
				continue
			}
			for _, i := range ht[v] {
				emit(i, int32(j))
			}
		}
	default:
		return nil, nil, false
	}
	return lpos, rpos, true
}

// ---------------------------------------------------------------------------
// SELECT

// vexecSelect runs a SELECT on the vectorized engine. ok=false means the
// statement shape is not supported and the caller must use the legacy
// interpreter.
func (e *Engine) vexecSelect(s *SelectStmt) (*column.Table, bool, error) {
	rels := make([]*vrel, len(s.From))
	for i, ref := range s.From {
		r, ok := e.resolveV(ref)
		if !ok {
			return nil, false, nil // legacy produces the unknown-source error
		}
		rels[i] = r
	}
	if len(rels) == 0 || len(rels) > 2 {
		return nil, false, nil
	}

	conj := conjuncts(s.Where)
	x := &vctx{rels: rels}
	switch len(rels) {
	case 1:
		x.pos = [][]int32{nil}
		x.n = rels[0].rows
	case 2:
		if rels[0].arr != nil && rels[1].arr != nil && sameShape(rels[0].arr, rels[1].arr) {
			if matched, residual := vzipMatched(conj, rels); matched == len(rels[0].arr.Dims) {
				x.pos = [][]int32{nil, nil}
				x.n = rels[0].rows
				conj = residual
				break
			}
		}
		ca, cb, rest, ok := vEquiJoin(conj, rels[0], rels[1])
		if !ok {
			return nil, false, nil // cross product: legacy guard applies
		}
		lpos, rpos, ok := vhashJoin(rels[0], ca, rels[1], cb)
		if !ok {
			return nil, false, nil
		}
		x.pos = [][]int32{lpos, rpos}
		x.n = len(lpos)
		conj = rest
	}

	vc := &vcompiler{rels: rels}

	// Dimension pushdown applies when the base index space is an array
	// (single array or aligned zip).
	var sel []int32
	if len(rels) == 1 && rels[0].arr != nil || len(rels) == 2 && x.pos[0] == nil {
		lo, hi, residual, constrained := dimRanges(conj, rels)
		if constrained {
			sel = enumerateRanges(rels[0], lo, hi)
			conj = residual
		}
	}

	// Residual WHERE conjuncts, left to right.
	filters := make([]pfilter, 0, len(conj))
	for _, c := range conj {
		f, err := vc.pred(c)
		if err != nil {
			return nil, false, nil
		}
		filters = append(filters, f)
	}

	// Select items.
	items, err := expandStars(s.Items, legacyShapes(rels))
	if err != nil {
		return nil, false, nil
	}
	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		if containsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	// Apply WHERE.
	for _, f := range filters {
		idx, err := f(x, sel)
		if err != nil {
			return nil, true, err
		}
		sel = gatherSel(sel, idx)
	}

	var out *column.Table
	var ok bool
	if hasAgg {
		out, ok, err = vexecAggSelect(vc, x, items, s.GroupBy, sel)
	} else {
		out, ok, err = vexecPlainSelect(vc, x, items, sel)
	}
	if err != nil || !ok {
		return nil, ok, err
	}

	if s.Distinct {
		out = distinctTable(out)
	}
	if len(s.OrderBy) > 0 {
		if err := orderTable(out, s.OrderBy, items); err != nil {
			return nil, true, err
		}
	}
	if s.Limit >= 0 {
		out = out.Head(s.Limit)
	}
	return out, true, nil
}

// legacyShapes adapts vrels for expandStars (which needs alias + names).
func legacyShapes(rels []*vrel) []*relation {
	out := make([]*relation, len(rels))
	for i, r := range rels {
		out[i] = &relation{alias: r.alias, names: r.names}
	}
	return out
}

func vexecPlainSelect(vc *vcompiler, x *vctx, items []SelectItem, sel []int32) (*column.Table, bool, error) {
	kernels := make([]*kernel, len(items))
	for i, it := range items {
		k, err := vc.kernel(it.Expr)
		if err != nil {
			return nil, false, nil
		}
		kernels[i] = k
	}
	t := &column.Table{Name: "result"}
	for i, k := range kernels {
		v, err := k.eval(x, sel)
		if err != nil {
			return nil, true, err
		}
		c := vecColumn(v)
		t.Fields = append(t.Fields, column.Field{Name: itemName(items[i], i), Typ: c.Typ})
		t.Cols = append(t.Cols, c)
	}
	return t, true, nil
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

type aggAcc struct {
	count  int64
	sum    float64
	min    float64
	max    float64
	allInt bool
}

func vexecAggSelect(vc *vcompiler, x *vctx, items []SelectItem, groupBy []Expr, sel []int32) (*column.Table, bool, error) {
	// Classify items: bare aggregate calls or group expressions.
	type itemPlan struct {
		agg  *CallExpr // nil for non-aggregate items
		argK *kernel   // aggregate argument kernel
		k    *kernel   // non-aggregate kernel (evaluated on group reps)
	}
	plans := make([]itemPlan, len(items))
	for i, it := range items {
		if call, ok := it.Expr.(*CallExpr); ok {
			switch call.Name {
			case "count", "sum", "avg", "min", "max":
				p := itemPlan{agg: call}
				if !call.Star {
					if len(call.Args) != 1 {
						return nil, true, fmt.Errorf("sciql: %s takes exactly one argument", call.Name)
					}
					if containsAggregate(call.Args[0]) {
						return nil, false, nil
					}
					k, err := vc.kernel(call.Args[0])
					if err != nil {
						return nil, false, nil
					}
					if k.kind == kStr && !(k.isConst && k.constNull) {
						return nil, false, nil // legacy errors per row; keep its message
					}
					p.argK = k
				}
				plans[i] = p
				continue
			}
		}
		if containsAggregate(it.Expr) {
			return nil, false, nil // aggregate inside arithmetic: legacy path
		}
		k, err := vc.kernel(it.Expr)
		if err != nil {
			return nil, false, nil
		}
		plans[i] = itemPlan{k: k}
	}

	groupKs := make([]*kernel, len(groupBy))
	for i, ge := range groupBy {
		k, err := vc.kernel(ge)
		if err != nil {
			return nil, false, nil
		}
		groupKs[i] = k
	}

	n := x.selLen(sel)
	// Compute group ids in first-appearance order.
	var groupOf []int32
	var reps []int32 // representative solution per group
	var groupRows []int64
	nGroups := 0
	if len(groupBy) == 0 {
		if n > 0 {
			nGroups = 1
			groupRows = []int64{int64(n)}
			if sel == nil {
				reps = []int32{0}
			} else {
				reps = []int32{sel[0]}
			}
		}
	} else {
		keyVecs := make([]*vec, len(groupKs))
		for i, k := range groupKs {
			v, err := k.eval(x, sel)
			if err != nil {
				return nil, true, err
			}
			keyVecs[i] = v
		}
		groupOf = make([]int32, n)
		byKey := make(map[string]int32, 16)
		var buf []byte
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for _, kv := range keyVecs {
				buf = appendGroupKey(buf, kv, i)
			}
			id, ok := byKey[string(buf)]
			if !ok {
				id = int32(nGroups)
				nGroups++
				byKey[string(buf)] = id
				if sel == nil {
					reps = append(reps, int32(i))
				} else {
					reps = append(reps, sel[i])
				}
				groupRows = append(groupRows, 0)
			}
			groupOf[i] = id
			groupRows[id]++
		}
	}
	if len(groupBy) == 0 && nGroups == 0 {
		// A global aggregate over zero rows still yields one row, but any
		// non-aggregate item would need the legacy first-row quirk.
		for _, p := range plans {
			if p.agg == nil {
				return nil, false, nil
			}
		}
		nGroups = 1
		groupRows = []int64{0}
	}

	t := &column.Table{Name: "result"}
	for i, p := range plans {
		var c *column.Column
		switch {
		case p.agg != nil && p.agg.Star: // count(*)
			vals := make([]int64, nGroups)
			copy(vals, groupRows)
			c = column.NewInt64(vals)
		case p.agg != nil:
			accs := make([]aggAcc, nGroups)
			for g := range accs {
				accs[g] = aggAcc{min: math.Inf(1), max: math.Inf(-1), allInt: true}
			}
			if n > 0 {
				av, err := p.argK.eval(x, sel)
				if err != nil {
					return nil, true, err
				}
				isInt := av.kind == kInt
				isBool := av.kind == kBool
				for i := 0; i < n; i++ {
					if av.isNull(i) {
						continue
					}
					var f float64
					switch {
					case isBool:
						if av.b[i] {
							f = 1
						}
					case isInt:
						f = float64(av.i[i])
					default:
						f = av.f[i]
					}
					g := int32(0)
					if groupOf != nil {
						g = groupOf[i]
					}
					a := &accs[g]
					a.count++
					a.sum += f
					if !isInt {
						a.allInt = false
					}
					if f < a.min {
						a.min = f
					}
					if f > a.max {
						a.max = f
					}
				}
			}
			var err error
			c, err = aggColumn(p.agg.Name, accs)
			if err != nil {
				return nil, true, err
			}
		default:
			// reps must stay an explicit (possibly empty) selection: a nil
			// selection means "every solution" to the kernels.
			if reps == nil {
				reps = []int32{}
			}
			v, err := p.k.eval(x, reps)
			if err != nil {
				return nil, true, err
			}
			c = vecColumn(v)
		}
		t.Fields = append(t.Fields, column.Field{Name: itemName(items[i], i), Typ: c.Typ})
		t.Cols = append(t.Cols, c)
	}
	return t, true, nil
}

func aggColumn(name string, accs []aggAcc) (*column.Column, error) {
	switch name {
	case "count":
		vals := make([]int64, len(accs))
		for g, a := range accs {
			vals[g] = a.count
		}
		return column.NewInt64(vals), nil
	case "avg":
		vals := make([]float64, len(accs))
		var nulls []bool
		for g, a := range accs {
			if a.count == 0 {
				if nulls == nil {
					nulls = make([]bool, len(accs))
				}
				nulls[g] = true
				continue
			}
			vals[g] = a.sum / float64(a.count)
		}
		c := column.NewFloat64(vals)
		c.AttachNulls(nulls)
		return c, nil
	case "sum", "min", "max":
		pick := func(a aggAcc) float64 {
			switch name {
			case "min":
				return a.min
			case "max":
				return a.max
			}
			return a.sum
		}
		allInt := true
		anyVal := false
		for _, a := range accs {
			if a.count > 0 {
				anyVal = true
				if !a.allInt {
					allInt = false
				}
			}
		}
		if allInt && anyVal {
			vals := make([]int64, len(accs))
			var nulls []bool
			for g, a := range accs {
				if a.count == 0 {
					if nulls == nil {
						nulls = make([]bool, len(accs))
					}
					nulls[g] = true
					continue
				}
				vals[g] = int64(pick(a))
			}
			c := column.NewInt64(vals)
			c.AttachNulls(nulls)
			return c, nil
		}
		vals := make([]float64, len(accs))
		var nulls []bool
		for g, a := range accs {
			if a.count == 0 {
				if nulls == nil {
					nulls = make([]bool, len(accs))
				}
				nulls[g] = true
				continue
			}
			vals[g] = pick(a)
		}
		c := column.NewFloat64(vals)
		c.AttachNulls(nulls)
		return c, nil
	}
	return nil, fmt.Errorf("sciql: unknown aggregate %q", name)
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
// UPDATE / DELETE

// vexecUpdate runs an UPDATE through the vectorized engine with the
// fused evaluate-then-write pass. ok=false falls back to legacy.
func (e *Engine) vexecUpdate(s *UpdateStmt) (*Result, bool, error) {
	rel, ok := e.resolveV(TableRef{Name: s.Target})
	if !ok {
		return nil, false, nil
	}
	// Validate SET targets like the legacy path (it errors before
	// evaluating anything).
	if rel.arr != nil {
		for col := range s.Set {
			if _, ok := rel.arr.Values[col]; !ok {
				return nil, true, fmt.Errorf("sciql: %q is not a value attribute of array %q", col, rel.arr.Name)
			}
		}
	} else {
		for col := range s.Set {
			if rel.tbl.Col(col) == nil {
				return nil, true, fmt.Errorf("sciql: table %q has no column %q", rel.tbl.Name, col)
			}
		}
	}

	x := &vctx{rels: []*vrel{rel}, pos: [][]int32{nil}, n: rel.rows}
	vc := &vcompiler{rels: x.rels}

	conj := conjuncts(s.Where)
	var sel []int32
	if rel.arr != nil {
		lo, hi, residual, constrained := dimRanges(conj, x.rels)
		if constrained {
			sel = enumerateRanges(rel, lo, hi)
			conj = residual
		}
	}
	filters := make([]pfilter, 0, len(conj))
	for _, c := range conj {
		f, err := vc.pred(c)
		if err != nil {
			return nil, false, nil
		}
		filters = append(filters, f)
	}

	// Compile SET kernels up front so unsupported expressions fall back
	// before any evaluation.
	type setPlan struct {
		col string
		k   *kernel
	}
	var sets []setPlan
	for col, expr := range s.Set {
		k, err := vc.kernel(expr)
		if err != nil {
			return nil, false, nil
		}
		if rel.arr != nil {
			// Array attributes are DOUBLE; only numeric or NULL sources.
			if !isNumKind(k.kind) && !(k.isConst && k.constNull) {
				return nil, false, nil
			}
		} else {
			ct := rel.tbl.Col(col).Typ
			switch ct {
			case column.Int64, column.Float64:
				if !isNumKind(k.kind) && !(k.isConst && k.constNull) {
					return nil, false, nil
				}
			case column.String:
				if k.kind != kStr && !(k.isConst && k.constNull) {
					return nil, false, nil
				}
			case column.Bool:
				if k.kind != kBool && !(k.isConst && k.constNull) {
					return nil, false, nil
				}
			}
		}
		sets = append(sets, setPlan{col: col, k: k})
	}

	for _, f := range filters {
		idx, err := f(x, sel)
		if err != nil {
			return nil, true, err
		}
		sel = gatherSel(sel, idx)
	}

	affected := x.selLen(sel)
	// Evaluate every SET kernel before writing anything: an evaluation
	// error must leave the target untouched (legacy two-phase contract),
	// and self-referencing updates must read pre-update state.
	newVals := make([]*vec, len(sets))
	for i, sp := range sets {
		v, err := sp.k.eval(x, sel)
		if err != nil {
			return nil, true, err
		}
		newVals[i] = v
	}
	sel = x.full(sel)
	if rel.arr != nil {
		for i, sp := range sets {
			img := rel.arr.Values[sp.col]
			v := newVals[i]
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
		}
		return &Result{Affected: affected}, true, nil
	}
	for i, sp := range sets {
		c := rel.tbl.Col(sp.col)
		v := newVals[i]
		for j, row := range sel {
			if v.isNull(j) {
				c.SetNull(int(row))
				continue
			}
			// Like the legacy writer, a non-NULL store does not clear an
			// existing NULL flag (columns keep their validity bitmap).
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
	return &Result{Affected: affected}, true, nil
}

// vexecDelete filters the kept rows in one pass.
func (e *Engine) vexecDelete(s *DeleteStmt) (*Result, bool, error) {
	e.mu.RLock()
	_, isArray := e.arrays[s.Table]
	e.mu.RUnlock()
	if isArray {
		return nil, false, nil // legacy produces the array DELETE error
	}
	rel, ok := e.resolveV(TableRef{Name: s.Table})
	if !ok || rel.tbl == nil {
		return nil, false, nil
	}
	x := &vctx{rels: []*vrel{rel}, pos: [][]int32{nil}, n: rel.rows}
	vc := &vcompiler{rels: x.rels}
	var sel []int32
	for _, c := range conjuncts(s.Where) {
		f, err := vc.pred(c)
		if err != nil {
			return nil, false, nil
		}
		idx, err := f(x, sel)
		if err != nil {
			return nil, true, err
		}
		sel = gatherSel(sel, idx)
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
	compacted := rel.tbl.Gather(keep)
	e.mu.Lock()
	rel.tbl.Cols = compacted.Cols
	e.mu.Unlock()
	return &Result{Affected: matched}, true, nil
}
