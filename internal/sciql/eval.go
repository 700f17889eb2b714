package sciql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/array"
	"repro/internal/column"
)

// ArrayObject is a catalogued SciQL array: shared dimensions plus one
// dense float64 plane per value attribute.
type ArrayObject struct {
	Name   string
	Dims   []array.Dim
	Values map[string]*array.Array
	// order preserves value-attribute declaration order.
	order []string
}

// ValueNames returns the value attribute names in declaration order.
func (a *ArrayObject) ValueNames() []string { return a.order }

// Size reports the cell count.
func (a *ArrayObject) Size() int {
	n := 1
	for _, d := range a.Dims {
		n *= d.Size
	}
	return n
}

// Engine executes SciQL statements against an in-memory catalog of tables
// and arrays. Safe for concurrent reads; writes (CREATE/INSERT/UPDATE/DROP)
// must be externally serialised with reads, as in the single-writer
// ingestion pipeline of the Earth Observatory.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*column.Table
	arrays map[string]*ArrayObject

	// forceInterpreter skips the columnar kernel executor (vexec.go) and
	// runs every statement through the tuple-at-a-time interpreter below,
	// which production reaches only as the whole-statement fallback for
	// shapes the vectorized compiler rejects. Only the in-package
	// equivalence tests and benchmarks set it.
	forceInterpreter bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{
		tables: map[string]*column.Table{},
		arrays: map[string]*ArrayObject{},
	}
}

// RegisterTable adds (or replaces) a table in the catalog.
func (e *Engine) RegisterTable(t *column.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[t.Name] = t
}

// RegisterArray adds (or replaces) an array with one value plane per
// entry of values; all planes must share the dims shape.
func (e *Engine) RegisterArray(name string, dims []array.Dim, values map[string]*array.Array) error {
	obj := &ArrayObject{Name: name, Dims: dims, Values: map[string]*array.Array{}}
	n := 1
	for _, d := range dims {
		n *= d.Size
	}
	names := make([]string, 0, len(values))
	for vn := range values {
		names = append(names, vn)
	}
	sort.Strings(names)
	for _, vn := range names {
		img := values[vn]
		if img.Size() != n {
			return fmt.Errorf("sciql: value plane %q has %d cells, dims imply %d", vn, img.Size(), n)
		}
		obj.Values[vn] = img
		obj.order = append(obj.order, vn)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.arrays[name] = obj
	return nil
}

// Table returns a catalogued table.
func (e *Engine) Table(name string) (*column.Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("sciql: unknown table %q", name)
	}
	return t, nil
}

// Array returns a catalogued array.
func (e *Engine) Array(name string) (*ArrayObject, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a, ok := e.arrays[name]
	if !ok {
		return nil, fmt.Errorf("sciql: unknown array %q", name)
	}
	return a, nil
}

// Result is the outcome of a statement: a result table for SELECT, or an
// affected-row count for DML/DDL.
type Result struct {
	Table    *column.Table
	Affected int
}

// Exec parses and executes one statement.
func (e *Engine) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(st)
}

// MustExec is Exec that panics on error; for tests and fixtures.
func (e *Engine) MustExec(src string) *Result {
	r, err := e.Exec(src)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(st Statement) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		e.RegisterTable(column.NewTable(s.Name, s.Fields...))
		return &Result{}, nil
	case *CreateArrayStmt:
		return e.execCreateArray(s)
	case *InsertStmt:
		return e.execInsert(s)
	case *SelectStmt:
		t, err := e.execSelect(s)
		if err != nil {
			return nil, err
		}
		return &Result{Table: t}, nil
	case *UpdateStmt:
		return e.execUpdate(s)
	case *DeleteStmt:
		return e.execDelete(s)
	case *DropStmt:
		e.mu.Lock()
		defer e.mu.Unlock()
		if s.IsArray {
			if _, ok := e.arrays[s.Name]; !ok {
				return nil, fmt.Errorf("sciql: unknown array %q", s.Name)
			}
			delete(e.arrays, s.Name)
		} else {
			if _, ok := e.tables[s.Name]; !ok {
				return nil, fmt.Errorf("sciql: unknown table %q", s.Name)
			}
			delete(e.tables, s.Name)
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sciql: unsupported statement %T", st)
}

func (e *Engine) execCreateArray(s *CreateArrayStmt) (*Result, error) {
	if s.AsSelect == nil {
		dims := make([]array.Dim, len(s.Dims))
		for i, d := range s.Dims {
			dims[i] = array.Dim{Name: d.Name, Size: d.Size}
		}
		values := map[string]*array.Array{}
		obj := &ArrayObject{Name: s.Name, Dims: dims, Values: values}
		for _, vn := range s.Values {
			img, err := array.New(vn, dims...)
			if err != nil {
				return nil, err
			}
			values[vn] = img
			obj.order = append(obj.order, vn)
		}
		e.mu.Lock()
		e.arrays[s.Name] = obj
		e.mu.Unlock()
		return &Result{}, nil
	}
	// CREATE ARRAY a AS SELECT: all result columns except the last are
	// integer dimension coordinates; the last is the value.
	res, err := e.execSelect(s.AsSelect)
	if err != nil {
		return nil, err
	}
	if len(res.Fields) < 2 {
		return nil, fmt.Errorf("sciql: CREATE ARRAY AS SELECT needs at least 2 result columns")
	}
	nd := len(res.Fields) - 1
	dims := make([]array.Dim, nd)
	for i := 0; i < nd; i++ {
		c := res.Cols[i]
		if c.Typ != column.Int64 {
			return nil, fmt.Errorf("sciql: dimension column %q must be integer", res.Fields[i].Name)
		}
		max := int64(-1)
		for j := 0; j < c.Len(); j++ {
			if v := c.Int(j); v > max {
				max = v
			}
			if c.Int(j) < 0 {
				return nil, fmt.Errorf("sciql: negative dimension coordinate in %q", res.Fields[i].Name)
			}
		}
		dims[i] = array.Dim{Name: res.Fields[i].Name, Size: int(max + 1)}
	}
	valName := res.Fields[nd].Name
	img, err := array.New(valName, dims...)
	if err != nil {
		return nil, err
	}
	// Cells not covered by the query stay null, matching SciQL's sparse
	// fill semantics for array construction.
	img.Null = make([]bool, img.Size())
	for i := range img.Null {
		img.Null[i] = true
	}
	vcol := res.Cols[nd]
	idx := make([]int, nd)
	for j := 0; j < res.NumRows(); j++ {
		for i := 0; i < nd; i++ {
			idx[i] = int(res.Cols[i].Int(j))
		}
		var v float64
		switch vcol.Typ {
		case column.Float64:
			v = vcol.Float(j)
		case column.Int64:
			v = float64(vcol.Int(j))
		default:
			return nil, fmt.Errorf("sciql: value column %q must be numeric", valName)
		}
		if err := img.Set(v, idx...); err != nil {
			return nil, err
		}
	}
	obj := &ArrayObject{Name: s.Name, Dims: dims, Values: map[string]*array.Array{valName: img}, order: []string{valName}}
	e.mu.Lock()
	e.arrays[s.Name] = obj
	e.mu.Unlock()
	return &Result{Affected: res.NumRows()}, nil
}

func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return nil, err
	}
	for _, row := range s.Rows {
		vals := make([]any, len(row))
		for i, expr := range row {
			v, err := evalExpr(expr, nil)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// relation is the evaluator's uniform row source: named, typed columns of
// values with a row accessor.
type relation struct {
	alias string
	names []string
	// get(row, col) returns the value (nil for NULL).
	get  func(row, col int) any
	rows int
	// arr is non-nil when this relation wraps an array (enables the
	// aligned-zip join fast path).
	arr *ArrayObject
}

func (e *Engine) resolve(ref TableRef) (*relation, error) {
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
		return &relation{
			alias: alias,
			names: names,
			rows:  t.NumRows(),
			get:   func(row, col int) any { return t.Cols[col].Value(row) },
		}, nil
	case isArray:
		var names []string
		for _, d := range a.Dims {
			names = append(names, d.Name)
		}
		names = append(names, a.order...)
		nd := len(a.Dims)
		// Precompute strides for coordinate recovery.
		strides := make([]int, nd)
		s := 1
		for i := nd - 1; i >= 0; i-- {
			strides[i] = s
			s *= a.Dims[i].Size
		}
		return &relation{
			alias: alias,
			names: names,
			rows:  a.Size(),
			arr:   a,
			get: func(row, col int) any {
				if col < nd {
					return int64(row / strides[col] % a.Dims[col].Size)
				}
				img := a.Values[a.order[col-nd]]
				if img.IsNull(row) {
					return nil
				}
				return img.Data[row]
			},
		}, nil
	default:
		return nil, fmt.Errorf("sciql: unknown table or array %q", ref.Name)
	}
}

// env binds column references during expression evaluation.
type env struct {
	rels []*relation
	rows []int // current row per relation
}

func (ev *env) lookup(table, name string) (any, bool, error) {
	found := false
	var val any
	for ri, r := range ev.rels {
		if table != "" && r.alias != table {
			continue
		}
		for ci, n := range r.names {
			if n == name {
				if found {
					return nil, false, fmt.Errorf("sciql: ambiguous column %q", name)
				}
				val = r.get(ev.rows[ri], ci)
				found = true
			}
		}
	}
	return val, found, nil
}

func (e *Engine) execSelect(s *SelectStmt) (*column.Table, error) {
	if !e.forceInterpreter {
		if t, ok, err := e.vexecSelect(s); ok {
			return t, err
		}
	}
	// Resolve sources.
	rels := make([]*relation, len(s.From))
	for i, ref := range s.From {
		r, err := e.resolve(ref)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	// No FROM: single empty-environment row (SELECT 1+1).
	if len(rels) == 0 {
		rels = []*relation{{alias: "", rows: 1, get: func(int, int) any { return nil }}}
	}

	// Enumerate joined row combinations.
	combos, residual, err := joinRows(rels, s.Where)
	if err != nil {
		return nil, err
	}

	ev := &env{rels: rels, rows: make([]int, len(rels))}

	// Apply residual WHERE.
	var rowIDs [][]int
	for _, combo := range combos {
		copy(ev.rows, combo)
		if residual != nil {
			ok, err := evalBool(residual, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		keep := make([]int, len(combo))
		copy(keep, combo)
		rowIDs = append(rowIDs, keep)
	}

	// Expand stars.
	items, err := expandStars(s.Items, rels)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		if containsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	var out *column.Table
	if hasAgg {
		out, err = evalAggregateSelect(items, s.GroupBy, rels, rowIDs)
	} else {
		out, err = evalPlainSelect(items, rels, rowIDs)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out = distinctTable(out)
	}
	if len(s.OrderBy) > 0 {
		if err := orderTable(out, s.OrderBy, items); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 {
		out = out.Head(s.Limit)
	}
	return out, nil
}

// joinRows enumerates the surviving row combinations across relations,
// using (a) an aligned zip when two same-shaped arrays are equated on all
// dimensions, (b) a hash join on the first equi-join conjunct, or (c) a
// nested-loop cross product. It returns the combinations plus the residual
// predicate still to apply.
func joinRows(rels []*relation, where Expr) ([][]int, Expr, error) {
	if len(rels) == 1 {
		combos := make([][]int, rels[0].rows)
		for i := range combos {
			combos[i] = []int{i}
		}
		return combos, where, nil
	}
	if len(rels) == 2 {
		conj := conjuncts(where)
		// Aligned-zip fast path for co-registered arrays.
		if rels[0].arr != nil && rels[1].arr != nil && sameShape(rels[0].arr, rels[1].arr) {
			matched, residual := dimEqualityConjuncts(conj, rels[0], rels[1])
			if matched == len(rels[0].arr.Dims) {
				combos := make([][]int, rels[0].rows)
				for i := range combos {
					combos[i] = []int{i, i}
				}
				return combos, andAll(residual), nil
			}
		}
		// Hash join on the first equi conjunct.
		if lcol, rcol, rest, ok := equiJoinColumns(conj, rels[0], rels[1]); ok {
			combos := hashJoin(rels[0], lcol, rels[1], rcol)
			return combos, andAll(rest), nil
		}
	}
	// Nested loop cross product (guard against blow-ups). The bound is
	// checked by division before each multiply so oversized products are
	// rejected instead of wrapping int.
	total := 1
	for _, r := range rels {
		if r.rows != 0 && total > 50_000_000/r.rows {
			return nil, nil, fmt.Errorf("sciql: cross product too large (%d relations, over 50M rows); add an equality join predicate", len(rels))
		}
		total *= r.rows
	}
	combos := make([][]int, 0, total)
	cur := make([]int, len(rels))
	var rec func(i int)
	rec = func(i int) {
		if i == len(rels) {
			c := make([]int, len(cur))
			copy(c, cur)
			combos = append(combos, c)
			return
		}
		for r := 0; r < rels[i].rows; r++ {
			cur[i] = r
			rec(i + 1)
		}
	}
	rec(0)
	return combos, where, nil
}

func sameShape(a, b *ArrayObject) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i].Size != b.Dims[i].Size {
			return false
		}
	}
	return true
}

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []Expr{e}
}

func andAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", Left: out, Right: e}
		}
	}
	return out
}

// dimEqualityConjuncts counts how many of a's dimensions are equated with
// the same-named dimension of b, returning the residual conjuncts.
func dimEqualityConjuncts(conj []Expr, a, b *relation) (int, []Expr) {
	matched := map[string]bool{}
	var residual []Expr
	for _, c := range conj {
		be, ok := c.(*BinaryExpr)
		if ok && be.Op == "=" {
			l, lok := be.Left.(*ColRef)
			r, rok := be.Right.(*ColRef)
			if lok && rok {
				// a.x = b.x (either side order) over dimension columns.
				if isDimOf(l, a) && isDimOf(r, b) && l.Name == r.Name {
					matched[l.Name] = true
					continue
				}
				if isDimOf(l, b) && isDimOf(r, a) && l.Name == r.Name {
					matched[l.Name] = true
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return len(matched), residual
}

func isDimOf(c *ColRef, r *relation) bool {
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

// equiJoinColumns finds a conjunct of the form a.c1 = b.c2 (both sides
// column refs bound to different relations), returning the column indices.
func equiJoinColumns(conj []Expr, a, b *relation) (int, int, []Expr, bool) {
	colIndex := func(r *relation, c *ColRef) int {
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
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		l, lok := be.Left.(*ColRef)
		r, rok := be.Right.(*ColRef)
		if !lok || !rok {
			continue
		}
		// Require explicit or unambiguous binding to distinct relations.
		la, ra := colIndex(a, l), colIndex(a, r)
		lb, rb := colIndex(b, l), colIndex(b, r)
		var ca, cb int = -1, -1
		switch {
		case la >= 0 && rb >= 0 && (l.Table != "" || lb < 0) && (r.Table != "" || ra < 0):
			ca, cb = la, rb
		case lb >= 0 && ra >= 0 && (l.Table != "" || la < 0) && (r.Table != "" || rb < 0):
			ca, cb = ra, lb
		}
		if ca >= 0 && cb >= 0 {
			rest := append(append([]Expr{}, conj[:i]...), conj[i+1:]...)
			return ca, cb, rest, true
		}
	}
	return 0, 0, conj, false
}

func hashJoin(a *relation, ca int, b *relation, cb int) [][]int {
	// Build on the smaller side.
	build, probe := a, b
	cBuild, cProbe := ca, cb
	swapped := false
	if b.rows < a.rows {
		build, probe = b, a
		cBuild, cProbe = cb, ca
		swapped = true
	}
	ht := make(map[any][]int, build.rows)
	for i := 0; i < build.rows; i++ {
		v := build.get(i, cBuild)
		if v == nil {
			continue
		}
		ht[v] = append(ht[v], i)
	}
	var combos [][]int
	for j := 0; j < probe.rows; j++ {
		v := probe.get(j, cProbe)
		if v == nil {
			continue
		}
		for _, i := range ht[v] {
			if swapped {
				combos = append(combos, []int{j, i})
			} else {
				combos = append(combos, []int{i, j})
			}
		}
	}
	return combos
}

func expandStars(items []SelectItem, rels []*relation) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, r := range rels {
			for _, n := range r.names {
				out = append(out, SelectItem{
					Expr:  &ColRef{Table: r.alias, Name: n},
					Alias: n,
				})
			}
		}
	}
	return out, nil
}

func containsAggregate(e Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *CallExpr:
		switch t.Name {
		case "count", "sum", "avg", "min", "max":
			return true
		}
		for _, a := range t.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return containsAggregate(t.Left) || containsAggregate(t.Right)
	case *UnaryExpr:
		return containsAggregate(t.X)
	case *BetweenExpr:
		return containsAggregate(t.X) || containsAggregate(t.Lo) || containsAggregate(t.Hi)
	case *CaseExpr:
		for _, w := range t.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Then) {
				return true
			}
		}
		return containsAggregate(t.Else)
	case *IsNullExpr:
		return containsAggregate(t.X)
	case *InExpr:
		if containsAggregate(t.X) {
			return true
		}
		for _, e := range t.List {
			if containsAggregate(e) {
				return true
			}
		}
	}
	return false
}

func itemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(*ColRef); ok {
		return c.Name
	}
	if c, ok := it.Expr.(*CallExpr); ok {
		return c.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

func evalPlainSelect(items []SelectItem, rels []*relation, rowIDs [][]int) (*column.Table, error) {
	ev := &env{rels: rels, rows: make([]int, len(rels))}
	cols := make([][]any, len(items))
	for _, combo := range rowIDs {
		copy(ev.rows, combo)
		for i, it := range items {
			v, err := evalExpr(it.Expr, ev)
			if err != nil {
				return nil, err
			}
			cols[i] = append(cols[i], v)
		}
	}
	return buildResult(items, cols)
}

func evalAggregateSelect(items []SelectItem, groupBy []Expr, rels []*relation, rowIDs [][]int) (*column.Table, error) {
	ev := &env{rels: rels, rows: make([]int, len(rels))}
	type group struct {
		key  string
		rows [][]int
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, combo := range rowIDs {
		copy(ev.rows, combo)
		var key strings.Builder
		for _, ge := range groupBy {
			v, err := evalExpr(ge, ev)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&key, "%v|", v)
		}
		k := key.String()
		g, ok := byKey[k]
		if !ok {
			g = &group{key: k}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, combo)
	}
	// Global aggregate with no rows still yields one row (count = 0).
	if len(groupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	cols := make([][]any, len(items))
	for _, g := range groups {
		for i, it := range items {
			v, err := evalAggExpr(it.Expr, ev, g.rows)
			if err != nil {
				return nil, err
			}
			cols[i] = append(cols[i], v)
		}
	}
	return buildResult(items, cols)
}

// evalAggExpr evaluates an expression that may contain aggregates over a
// group of row combinations; non-aggregate subexpressions use the group's
// first row (the SQL semantics for grouped columns).
func evalAggExpr(e Expr, ev *env, rows [][]int) (any, error) {
	switch t := e.(type) {
	case *CallExpr:
		switch t.Name {
		case "count", "sum", "avg", "min", "max":
			return evalAggregate(t, ev, rows)
		}
		args := make([]any, len(t.Args))
		for i, a := range t.Args {
			v, err := evalAggExpr(a, ev, rows)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applyScalar(t.Name, args)
	case *BinaryExpr:
		l, err := evalAggExpr(t.Left, ev, rows)
		if err != nil {
			return nil, err
		}
		r, err := evalAggExpr(t.Right, ev, rows)
		if err != nil {
			return nil, err
		}
		return applyBinary(t.Op, l, r)
	case *UnaryExpr:
		v, err := evalAggExpr(t.X, ev, rows)
		if err != nil {
			return nil, err
		}
		return applyUnary(t.Op, v)
	default:
		if len(rows) > 0 {
			copy(ev.rows, rows[0])
		}
		return evalExpr(e, ev)
	}
}

func evalAggregate(call *CallExpr, ev *env, rows [][]int) (any, error) {
	if call.Name == "count" && call.Star {
		return int64(len(rows)), nil
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("sciql: %s takes exactly one argument", call.Name)
	}
	var count int64
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	allInt := true
	for _, combo := range rows {
		copy(ev.rows, combo)
		v, err := evalExpr(call.Args[0], ev)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		var f float64
		switch x := v.(type) {
		case int64:
			f = float64(x)
		case float64:
			f = x
			allInt = false
		case bool:
			allInt = false
			if x {
				f = 1
			}
		default:
			return nil, fmt.Errorf("sciql: %s over non-numeric value %T", call.Name, v)
		}
		count++
		sum += f
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	switch call.Name {
	case "count":
		return count, nil
	case "sum":
		if count == 0 {
			return nil, nil
		}
		if allInt {
			return int64(sum), nil
		}
		return sum, nil
	case "avg":
		if count == 0 {
			return nil, nil
		}
		return sum / float64(count), nil
	case "min":
		if count == 0 {
			return nil, nil
		}
		if allInt {
			return int64(min), nil
		}
		return min, nil
	case "max":
		if count == 0 {
			return nil, nil
		}
		if allInt {
			return int64(max), nil
		}
		return max, nil
	}
	return nil, fmt.Errorf("sciql: unknown aggregate %q", call.Name)
}

func buildResult(items []SelectItem, cols [][]any) (*column.Table, error) {
	t := &column.Table{Name: "result"}
	for i, it := range items {
		typ := column.Float64
		for _, v := range cols[i] {
			if v == nil {
				continue
			}
			switch v.(type) {
			case int64:
				typ = column.Int64
			case float64:
				typ = column.Float64
			case string:
				typ = column.String
			case bool:
				typ = column.Bool
			}
			break
		}
		c := column.NewEmpty(typ)
		for _, v := range cols[i] {
			if err := c.AppendValue(v); err != nil {
				// Mixed types in one output column: degrade to string.
				return nil, fmt.Errorf("sciql: column %q: %w", itemName(it, i), err)
			}
		}
		t.Fields = append(t.Fields, column.Field{Name: itemName(it, i), Typ: typ})
		t.Cols = append(t.Cols, c)
	}
	return t, nil
}

func distinctTable(t *column.Table) *column.Table {
	seen := map[string]bool{}
	var keep []int
	for i := 0; i < t.NumRows(); i++ {
		var key strings.Builder
		for _, c := range t.Cols {
			fmt.Fprintf(&key, "%v|", c.Value(i))
		}
		if !seen[key.String()] {
			seen[key.String()] = true
			keep = append(keep, i)
		}
	}
	return t.Gather(keep)
}

func orderTable(t *column.Table, orderBy []OrderItem, items []SelectItem) error {
	// ORDER BY expressions must reference result columns (by alias/name).
	keyCols := make([]*column.Column, len(orderBy))
	for i, oi := range orderBy {
		cr, ok := oi.Expr.(*ColRef)
		if !ok {
			return fmt.Errorf("sciql: ORDER BY supports result column references only")
		}
		c := t.Col(cr.Name)
		if c == nil {
			return fmt.Errorf("sciql: ORDER BY column %q not in result", cr.Name)
		}
		keyCols[i] = c
	}
	perm := make([]int, t.NumRows())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for k, c := range keyCols {
			cmp := compareValues(c.Value(perm[a]), c.Value(perm[b]))
			if cmp == 0 {
				continue
			}
			if orderBy[k].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	sorted := t.Gather(perm)
	t.Cols = sorted.Cols
	return nil
}

func compareValues(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	af, aIsNum := toFloat(a)
	bf, bIsNum := toFloat(b)
	if aIsNum && bIsNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs)
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}

func (e *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	if !e.forceInterpreter {
		if r, ok, err := e.vexecUpdate(s); ok {
			return r, err
		}
	}
	e.mu.RLock()
	tbl, isTable := e.tables[s.Target]
	arr, isArray := e.arrays[s.Target]
	e.mu.RUnlock()
	switch {
	case isArray:
		return e.updateArray(arr, s)
	case isTable:
		return e.updateTable(tbl, s)
	default:
		return nil, fmt.Errorf("sciql: unknown table or array %q", s.Target)
	}
}

func (e *Engine) updateArray(a *ArrayObject, s *UpdateStmt) (*Result, error) {
	for col := range s.Set {
		if _, ok := a.Values[col]; !ok {
			return nil, fmt.Errorf("sciql: %q is not a value attribute of array %q", col, a.Name)
		}
	}
	rel, err := e.resolve(TableRef{Name: a.Name})
	if err != nil {
		return nil, err
	}
	ev := &env{rels: []*relation{rel}, rows: []int{0}}
	affected := 0
	// Evaluate all new values first, then assign, so self-referencing
	// updates (v = v + 1) read consistent pre-update state.
	type pending struct {
		cell int
		col  string
		val  float64
		null bool
	}
	var writes []pending
	for cell := 0; cell < rel.rows; cell++ {
		ev.rows[0] = cell
		if s.Where != nil {
			ok, err := evalBool(s.Where, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for col, expr := range s.Set {
			v, err := evalExpr(expr, ev)
			if err != nil {
				return nil, err
			}
			if v == nil {
				writes = append(writes, pending{cell: cell, col: col, null: true})
				continue
			}
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("sciql: cannot assign %T to array attribute %q", v, col)
			}
			writes = append(writes, pending{cell: cell, col: col, val: f})
		}
		affected++
	}
	for _, w := range writes {
		img := a.Values[w.col]
		if w.null {
			if img.Null == nil {
				img.Null = make([]bool, len(img.Data))
			}
			img.Null[w.cell] = true
			continue
		}
		img.Data[w.cell] = w.val
		if img.Null != nil {
			img.Null[w.cell] = false
		}
	}
	return &Result{Affected: affected}, nil
}

// execDelete removes matching rows from a table (arrays are dense; use
// UPDATE ... SET v = NULL to blank array cells instead).
func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	if !e.forceInterpreter {
		if r, ok, err := e.vexecDelete(s); ok {
			return r, err
		}
	}
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
	rel, err := e.resolve(TableRef{Name: s.Table})
	if err != nil {
		return nil, err
	}
	ev := &env{rels: []*relation{rel}, rows: []int{0}}
	var keep []int
	deleted := 0
	for row := 0; row < rel.rows; row++ {
		ev.rows[0] = row
		match := true
		if s.Where != nil {
			match, err = evalBool(s.Where, ev)
			if err != nil {
				return nil, err
			}
		}
		if match {
			deleted++
		} else {
			keep = append(keep, row)
		}
	}
	compacted := t.Gather(keep)
	e.mu.Lock()
	t.Cols = compacted.Cols
	e.mu.Unlock()
	return &Result{Affected: deleted}, nil
}

func (e *Engine) updateTable(t *column.Table, s *UpdateStmt) (*Result, error) {
	for col := range s.Set {
		if t.Col(col) == nil {
			return nil, fmt.Errorf("sciql: table %q has no column %q", t.Name, col)
		}
	}
	rel, err := e.resolve(TableRef{Name: t.Name})
	if err != nil {
		return nil, err
	}
	ev := &env{rels: []*relation{rel}, rows: []int{0}}
	affected := 0
	type pending struct {
		row int
		col string
		val any
	}
	var writes []pending
	for row := 0; row < rel.rows; row++ {
		ev.rows[0] = row
		if s.Where != nil {
			ok, err := evalBool(s.Where, ev)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for col, expr := range s.Set {
			v, err := evalExpr(expr, ev)
			if err != nil {
				return nil, err
			}
			writes = append(writes, pending{row: row, col: col, val: v})
		}
		affected++
	}
	// Apply by rebuilding the affected columns (columns are append-only
	// vectors; in-place mutation is fine for same-type scalars).
	for _, w := range writes {
		c := t.Col(w.col)
		if err := setColumnValue(c, w.row, w.val); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: affected}, nil
}

func setColumnValue(c *column.Column, row int, v any) error {
	if v == nil {
		c.SetNull(row)
		return nil
	}
	switch c.Typ {
	case column.Int64:
		switch x := v.(type) {
		case int64:
			c.Ints()[row] = x
		case float64:
			c.Ints()[row] = int64(x)
		default:
			return fmt.Errorf("sciql: cannot assign %T to BIGINT", v)
		}
	case column.Float64:
		f, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("sciql: cannot assign %T to DOUBLE", v)
		}
		c.Floats()[row] = f
	case column.String:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("sciql: cannot assign %T to VARCHAR", v)
		}
		c.Strs()[row] = s
	case column.Bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("sciql: cannot assign %T to BOOLEAN", v)
		}
		c.Bools()[row] = b
	}
	return nil
}
