package sciql

import (
	"fmt"
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

// Size reports the cell count.
func (a *ArrayObject) Size() int {
	n := 1
	for _, d := range a.Dims {
		n *= d.Size
	}
	return n
}

// Engine executes SciQL statements against an in-memory catalog of tables
// and arrays; every statement runs on the compiled kernel executor
// (vexec.go). Safe for concurrent reads; writes (CREATE/INSERT/UPDATE/DROP)
// must be externally serialised with reads, as in the single-writer
// ingestion pipeline of the Earth Observatory.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*column.Table
	arrays map[string]*ArrayObject
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
	res, err := e.execSelect(s.AsSelect)
	if err != nil {
		return nil, err
	}
	return e.createArrayFrom(s.Name, res)
}

// createArrayFrom fills CREATE ARRAY name AS SELECT's array from the
// query result: all result columns except the last are integer dimension
// coordinates; the last is the value.
func (e *Engine) createArrayFrom(name string, res *column.Table) (*Result, error) {
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
	obj := &ArrayObject{Name: name, Dims: dims, Values: map[string]*array.Array{valName: img}, order: []string{valName}}
	e.mu.Lock()
	e.arrays[name] = obj
	e.mu.Unlock()
	return &Result{Affected: res.NumRows()}, nil
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

func expandStars(items []SelectItem, rels []*vrel) []SelectItem {
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
	return out
}

func containsAggregate(e Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *CallExpr:
		if isAggregate(t.Name) {
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

func orderTable(t *column.Table, orderBy []OrderItem) error {
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

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}
