package sciql

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/column"
)

// The reference evaluator: the tuple-at-a-time SciQL interpreter the
// compiled kernel executor replaced. It is kept, test-only, as the oracle
// the equivalence suites hold the executor to — rows, row order, column
// types, affected counts, post-mutation state and error text. It shares
// with production only the parser with its AST helpers (conjuncts,
// containsAggregate, isAggregate, itemName, sameShape), the catalog
// (with createArrayFrom, which fills CREATE ARRAY AS SELECT's array) and
// toFloat: every joined row combination is materialised as an []int,
// every cell is boxed into `any`, and every expression is evaluated per
// row through environment lookups.
//
// Four rules differ from the interpreter as it last ran in production,
// and the executor follows them too:
//   - a CASE with BIGINT and DOUBLE arms is DOUBLE, and one whose arms
//     mix other kinds is a type error;
//   - an aggregate query's items may put an aggregate under any
//     expression, and in a global aggregate over zero rows a column
//     outside an aggregate reads NULL (the interpreter read a stale or
//     missing row);
//   - a table UPDATE checks each SET value against its column as it
//     evaluates it, so a value the column cannot hold fails before
//     anything is written;
//   - UPDATE takes its SET list in column-name order, and a result
//     column's type is its expression's static type (kindOf).

// oracleExec parses and executes one statement on the reference
// evaluator; DDL goes through the engine, which evaluates nothing.
func (e *Engine) oracleExec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	switch s := st.(type) {
	case *SelectStmt:
		t, err := e.oracleSelect(s)
		if err != nil {
			return nil, err
		}
		return &Result{Table: t}, nil
	case *CreateArrayStmt:
		if s.AsSelect != nil {
			t, err := e.oracleSelect(s.AsSelect)
			if err != nil {
				return nil, err
			}
			return e.createArrayFrom(s.Name, t)
		}
	case *InsertStmt:
		return e.oracleInsert(s)
	case *UpdateStmt:
		return e.oracleUpdate(s)
	case *DeleteStmt:
		return e.oracleDelete(s)
	}
	return e.ExecStmt(st)
}

func (e *Engine) oracleInsert(s *InsertStmt) (*Result, error) {
	t, err := e.Table(s.Table)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(s.Rows))
	for r, row := range s.Rows {
		rows[r] = make([]any, len(row))
		for i, expr := range row {
			v, err := evalExpr(expr, nil)
			if err != nil {
				return nil, err
			}
			rows[r][i] = v
		}
		if err := t.CheckRow(rows[r]...); err != nil {
			return nil, err
		}
	}
	for _, vals := range rows {
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
	types []column.Type
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
		types := make([]column.Type, len(t.Fields))
		for i, f := range t.Fields {
			names[i], types[i] = f.Name, f.Typ
		}
		return &relation{
			alias: alias,
			names: names,
			types: types,
			rows:  t.NumRows(),
			get:   func(row, col int) any { return t.Cols[col].Value(row) },
		}, nil
	case isArray:
		var names []string
		var types []column.Type
		for _, d := range a.Dims {
			names = append(names, d.Name)
			types = append(types, column.Int64)
		}
		for _, vn := range a.order {
			names = append(names, vn)
			types = append(types, column.Float64)
		}
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
			types: types,
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
	// group holds the current group's row combinations while an aggregate
	// query evaluates its items, and an aggregate call folds over it.
	// Outside (grouped false) an aggregate name is an unknown function.
	group   [][]int
	grouped bool
	// noRow marks the items of a global aggregate over zero rows, where a
	// column outside an aggregate reads NULL.
	noRow bool
}

// bind finds a column: its relation and index, with the lookup rules'
// errors.
func (ev *env) bind(table, name string) (ri, ci int, err error) {
	ri = -1
	for r, rel := range ev.rels {
		if table != "" && rel.alias != table {
			continue
		}
		for c, n := range rel.names {
			if n == name {
				if ri >= 0 {
					return 0, 0, fmt.Errorf("sciql: ambiguous column %q", name)
				}
				ri, ci = r, c
			}
		}
	}
	switch {
	case ri >= 0:
		return ri, ci, nil
	case table != "":
		return 0, 0, fmt.Errorf("sciql: unknown column %q.%q", table, name)
	}
	return 0, 0, fmt.Errorf("sciql: unknown column %q", name)
}

func (e *Engine) oracleSelect(s *SelectStmt) (*column.Table, error) {
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
	var items []SelectItem
	for _, it := range s.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, r := range rels {
			for _, n := range r.names {
				items = append(items, SelectItem{Expr: &ColRef{Table: r.alias, Name: n}, Alias: n})
			}
		}
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
		out = oracleDistinct(out)
	}
	if len(s.OrderBy) > 0 {
		if err := oracleOrder(out, s.OrderBy); err != nil {
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
	return buildResult(items, ev, cols)
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
	// Items evaluate on each group's first row; aggregate calls fold over
	// the whole group.
	ev.grouped = true
	cols := make([][]any, len(items))
	for _, g := range groups {
		ev.group, ev.noRow = g.rows, len(g.rows) == 0
		if !ev.noRow {
			copy(ev.rows, g.rows[0])
		}
		for i, it := range items {
			v, err := evalExpr(it.Expr, ev)
			if err != nil {
				return nil, err
			}
			cols[i] = append(cols[i], v)
		}
	}
	return buildResult(items, ev, cols)
}

// evalAggregate folds an aggregate call over the current group, then
// leaves the environment on the group's first row again.
func evalAggregate(call *CallExpr, ev *env) (any, error) {
	if call.Name == "count" && call.Star {
		return int64(len(ev.group)), nil
	}
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("sciql: %s takes exactly one argument", call.Name)
	}
	first := append([]int(nil), ev.rows...)
	ev.grouped = false
	defer func() {
		copy(ev.rows, first)
		ev.grouped = true
	}()
	var count int64
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	allInt := true
	for _, combo := range ev.group {
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

// buildResult types each column by its item's static type.
func buildResult(items []SelectItem, ev *env, cols [][]any) (*column.Table, error) {
	t := &column.Table{Name: "result"}
	for i, it := range items {
		f := column.Field{Name: itemName(it, i), Typ: sampleType(kindOf(it.Expr, ev, ev.grouped))}
		one := &column.Table{Fields: []column.Field{f}, Cols: []*column.Column{column.NewEmpty(f.Typ)}}
		for _, v := range cols[i] {
			if err := one.AppendRow(v); err != nil {
				return nil, fmt.Errorf("sciql: %w", err)
			}
		}
		t.Fields = append(t.Fields, f)
		t.Cols = append(t.Cols, one.Cols[0])
	}
	return t, nil
}

// oracleDistinct keeps each row that no earlier kept row equals,
// comparing typed values (nil for NULL) column by column.
func oracleDistinct(t *column.Table) *column.Table {
	var keep []int
rows:
	for i := 0; i < t.NumRows(); i++ {
	kept:
		for _, k := range keep {
			for _, c := range t.Cols {
				if c.Value(i) != c.Value(k) {
					continue kept
				}
			}
			continue rows
		}
		keep = append(keep, i)
	}
	return t.Gather(keep)
}

func oracleOrder(t *column.Table, orderBy []OrderItem) error {
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
	cmp := func(a, b any) int {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		case b == nil:
			return 1
		}
		af, aIsNum := toFloat(a)
		bf, bIsNum := toFloat(b)
		if aIsNum && bIsNum {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			}
			return 0
		}
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for k, c := range keyCols {
			d := cmp(c.Value(perm[a]), c.Value(perm[b]))
			if d == 0 {
				continue
			}
			if orderBy[k].Desc {
				return d > 0
			}
			return d < 0
		}
		return false
	})
	t.Cols = t.Gather(perm).Cols
	return nil
}

// setColumns lists an UPDATE's SET targets in name order.
func setColumns(s *UpdateStmt) []string {
	cols := make([]string, 0, len(s.Set))
	for col := range s.Set {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	return cols
}

func (e *Engine) oracleUpdate(s *UpdateStmt) (*Result, error) {
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
	cols := setColumns(s)
	for _, col := range cols {
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
		for _, col := range cols {
			v, err := evalExpr(s.Set[col], ev)
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

// oracleDelete removes matching rows from a table.
func (e *Engine) oracleDelete(s *DeleteStmt) (*Result, error) {
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
	cols := setColumns(s)
	for _, col := range cols {
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
		for _, col := range cols {
			v, err := evalExpr(s.Set[col], ev)
			if err != nil {
				return nil, err
			}
			if err := canAssign(t.Col(col).Typ, v); err != nil {
				return nil, err
			}
			writes = append(writes, pending{row: row, col: col, val: v})
		}
		affected++
	}
	// Apply in place (same-type scalars); every value was checked above.
	for _, w := range writes {
		setColumnValue(t.Col(w.col), w.row, w.val)
	}
	return &Result{Affected: affected}, nil
}

// canAssign reports whether a column of type typ can hold v.
func canAssign(typ column.Type, v any) error {
	ok := true
	switch v.(type) {
	case nil:
	case int64, float64:
		ok = typ == column.Int64 || typ == column.Float64
	case string:
		ok = typ == column.String
	case bool:
		ok = typ == column.Bool
	}
	if !ok {
		return fmt.Errorf("sciql: cannot assign %T to %s", v, typ)
	}
	return nil
}

func setColumnValue(c *column.Column, row int, v any) {
	if v == nil {
		c.SetNull(row)
		return
	}
	defer c.ClearNull(row)
	switch x := v.(type) {
	case string:
		c.Strs()[row] = x
	case bool:
		c.Bools()[row] = x
	default:
		f, _ := toFloat(v)
		if c.Typ == column.Int64 {
			if i, ok := v.(int64); ok {
				c.Ints()[row] = i
			} else {
				c.Ints()[row] = int64(f)
			}
		} else {
			c.Floats()[row] = f
		}
	}
}

// Scalar expression evaluation. Values are nil (NULL), int64, float64,
// string or bool. NULL propagates through operators and comparisons
// (three-valued logic collapsed to "not true" for filters).

func evalExpr(e Expr, ev *env) (any, error) {
	switch t := e.(type) {
	case *Literal:
		return t.Value, nil
	case *ColRef:
		if ev == nil {
			return nil, fmt.Errorf("sciql: column %q referenced outside a query", t.Name)
		}
		ri, ci, err := ev.bind(t.Table, t.Name)
		if err != nil || ev.noRow {
			return nil, err
		}
		return ev.rels[ri].get(ev.rows[ri], ci), nil
	case *BinaryExpr:
		if t.Op == "AND" || t.Op == "OR" {
			return evalLogical(t, ev)
		}
		l, err := evalExpr(t.Left, ev)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(t.Right, ev)
		if err != nil {
			return nil, err
		}
		return applyBinary(t.Op, l, r)
	case *UnaryExpr:
		v, err := evalExpr(t.X, ev)
		if err != nil {
			return nil, err
		}
		return applyUnary(t.Op, v)
	case *CallExpr:
		if ev != nil && ev.grouped && isAggregate(t.Name) {
			return evalAggregate(t, ev)
		}
		args := make([]any, len(t.Args))
		for i, a := range t.Args {
			v, err := evalExpr(a, ev)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return applyScalar(t.Name, args)
	case *BetweenExpr:
		x, err := evalExpr(t.X, ev)
		if err != nil {
			return nil, err
		}
		lo, err := evalExpr(t.Lo, ev)
		if err != nil {
			return nil, err
		}
		hi, err := evalExpr(t.Hi, ev)
		if err != nil {
			return nil, err
		}
		if x == nil || lo == nil || hi == nil {
			return nil, nil
		}
		geLo, err := applyBinary(">=", x, lo)
		if err != nil {
			return nil, err
		}
		leHi, err := applyBinary("<=", x, hi)
		if err != nil {
			return nil, err
		}
		result := geLo == true && leHi == true
		if t.Not {
			result = !result
		}
		return result, nil
	case *CaseExpr:
		kind, err := caseKind(t, ev)
		if err != nil {
			return nil, err
		}
		v, err := evalCase(t, ev)
		if i, ok := v.(int64); ok && sampleType(kind) == column.Float64 {
			return float64(i), err
		}
		return v, err
	case *IsNullExpr:
		v, err := evalExpr(t.X, ev)
		if err != nil {
			return nil, err
		}
		isNull := v == nil
		if t.Not {
			return !isNull, nil
		}
		return isNull, nil
	case *InExpr:
		x, err := evalExpr(t.X, ev)
		if err != nil {
			return nil, err
		}
		if x == nil {
			return nil, nil
		}
		for _, le := range t.List {
			v, err := evalExpr(le, ev)
			if err != nil {
				return nil, err
			}
			eq, err := applyBinary("=", x, v)
			if err != nil {
				return nil, err
			}
			if eq == true {
				return !t.Not, nil
			}
		}
		return t.Not, nil
	}
	return nil, fmt.Errorf("sciql: unsupported expression %T", e)
}

func evalCase(t *CaseExpr, ev *env) (any, error) {
	for _, w := range t.Whens {
		ok, err := evalBool(w.Cond, ev)
		if err != nil {
			return nil, err
		}
		if ok {
			return evalExpr(w.Then, ev)
		}
	}
	if t.Else != nil {
		return evalExpr(t.Else, ev)
	}
	return nil, nil
}

// evalBool evaluates a predicate; NULL counts as false.
func evalBool(e Expr, ev *env) (bool, error) {
	v, err := evalExpr(e, ev)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

func evalLogical(t *BinaryExpr, ev *env) (any, error) {
	l, err := evalBool(t.Left, ev)
	if err != nil {
		return nil, err
	}
	// Short-circuit.
	if t.Op == "AND" && !l {
		return false, nil
	}
	if t.Op == "OR" && l {
		return true, nil
	}
	r, err := evalBool(t.Right, ev)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// kindOf returns a sample value of e's static type, or nil when e only
// ever yields NULL (a NULL operand, or a type error, which fails rather
// than yield a value). Samples go through the operator functions
// themselves, so the typing rules are the evaluator's own; every sample
// is its type's canonical 1, 1.0, "s" or true, so no operator can fail
// for its data (a division by zero, the square root of a negative).
func kindOf(e Expr, ev *env, grouped bool) any {
	v, err := sampleOf(e, ev, grouped)
	if err != nil {
		return nil
	}
	switch v.(type) {
	case int64:
		return int64(1)
	case float64:
		return 1.0
	case string:
		return "s"
	case bool:
		return true
	}
	return nil
}

func sampleOf(e Expr, ev *env, grouped bool) (any, error) {
	samples := func(es ...Expr) []any {
		out := make([]any, len(es))
		for i, x := range es {
			out[i] = kindOf(x, ev, grouped)
		}
		return out
	}
	switch t := e.(type) {
	case *Literal:
		return t.Value, nil
	case *ColRef:
		if ev == nil {
			return nil, nil
		}
		ri, ci, err := ev.bind(t.Table, t.Name)
		if err != nil {
			return nil, err
		}
		return map[column.Type]any{column.Int64: int64(1), column.Float64: 1.0, column.String: "s", column.Bool: true}[ev.rels[ri].types[ci]], nil
	case *BinaryExpr:
		if t.Op == "AND" || t.Op == "OR" {
			return true, nil
		}
		s := samples(t.Left, t.Right)
		return applyBinary(t.Op, s[0], s[1])
	case *UnaryExpr:
		return applyUnary(t.Op, kindOf(t.X, ev, grouped))
	case *CallExpr:
		if grouped && isAggregate(t.Name) {
			return aggKind(t, ev), nil
		}
		return applyScalar(t.Name, samples(t.Args...))
	case *BetweenExpr:
		s := samples(t.X, t.Lo, t.Hi)
		if s[0] == nil || s[1] == nil || s[2] == nil {
			return nil, nil
		}
		if _, err := applyBinary(">=", s[0], s[1]); err != nil {
			return nil, err
		}
		return applyBinary("<=", s[0], s[2])
	case *CaseExpr:
		return caseKindIn(t, ev, grouped)
	case *IsNullExpr:
		return true, nil
	case *InExpr:
		if kindOf(t.X, ev, grouped) == nil {
			return nil, nil
		}
		return true, nil
	}
	return nil, nil
}

// aggKind is an aggregate call's sample: count is BIGINT, avg DOUBLE, and
// sum, min and max take their argument's numeric type (booleans fold as
// DOUBLE); a string argument fails, and a NULL one yields NULL.
func aggKind(t *CallExpr, ev *env) any {
	if t.Name == "count" && t.Star {
		return int64(1)
	}
	if len(t.Args) != 1 {
		return nil
	}
	a := kindOf(t.Args[0], ev, false)
	switch {
	case t.Name == "count":
		return int64(1)
	case a == nil:
		return nil
	}
	switch a.(type) {
	case string:
		return nil
	case int64:
		if t.Name != "avg" {
			return int64(1)
		}
	}
	return 1.0
}

// caseKind is a CASE's sample: its arms' type, NULL arms aside, where
// BIGINT and DOUBLE arms make DOUBLE and any other mix is a type error.
func caseKind(t *CaseExpr, ev *env) (any, error) {
	return caseKindIn(t, ev, ev != nil && ev.grouped)
}

func caseKindIn(t *CaseExpr, ev *env, grouped bool) (any, error) {
	arms := make([]Expr, 0, len(t.Whens)+1)
	for _, w := range t.Whens {
		arms = append(arms, w.Then)
	}
	if t.Else != nil {
		arms = append(arms, t.Else)
	}
	var kind any
	for _, a := range arms {
		k := kindOf(a, ev, grouped)
		switch kt, kk := sampleType(kind), sampleType(k); {
		case k == nil || kt == kk && kind != nil:
		case kind == nil:
			kind = k
		case kt != column.String && kt != column.Bool && kk != column.String && kk != column.Bool:
			kind = 1.0
		default:
			return nil, fmt.Errorf("sciql: CASE arms mix %s and %s", kt, kk)
		}
	}
	return kind, nil
}

// sampleType is a sample's column type (DOUBLE for nil).
func sampleType(v any) column.Type {
	switch v.(type) {
	case int64:
		return column.Int64
	case string:
		return column.String
	case bool:
		return column.Bool
	}
	return column.Float64
}

func applyBinary(op string, l, r any) (any, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	if op == "||" {
		return fmt.Sprint(l) + fmt.Sprint(r), nil
	}
	// String comparisons.
	ls, lIsStr := l.(string)
	rs, rIsStr := r.(string)
	if lIsStr && rIsStr {
		switch op {
		case "=":
			return ls == rs, nil
		case "<>":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		}
		return nil, fmt.Errorf("sciql: operator %q not defined on strings", op)
	}
	// Bool equality.
	lb, lIsBool := l.(bool)
	rb, rIsBool := r.(bool)
	if lIsBool && rIsBool {
		switch op {
		case "=":
			return lb == rb, nil
		case "<>":
			return lb != rb, nil
		}
		return nil, fmt.Errorf("sciql: operator %q not defined on booleans", op)
	}
	// Integer arithmetic stays integer.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("sciql: division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("sciql: modulo by zero")
			}
			return li % ri, nil
		case "=":
			return li == ri, nil
		case "<>":
			return li != ri, nil
		case "<":
			return li < ri, nil
		case "<=":
			return li <= ri, nil
		case ">":
			return li > ri, nil
		case ">=":
			return li >= ri, nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("sciql: operator %q not defined on %T and %T", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sciql: division by zero")
		}
		return lf / rf, nil
	case "%":
		if rf == 0 {
			return nil, fmt.Errorf("sciql: modulo by zero")
		}
		return math.Mod(lf, rf), nil
	case "=":
		return lf == rf, nil
	case "<>":
		return lf != rf, nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, fmt.Errorf("sciql: unknown operator %q", op)
}

func applyUnary(op string, v any) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch op {
	case "-":
		switch x := v.(type) {
		case int64:
			return -x, nil
		case float64:
			return -x, nil
		}
		return nil, fmt.Errorf("sciql: unary minus on %T", v)
	case "NOT":
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("sciql: NOT on %T", v)
		}
		return !b, nil
	}
	return nil, fmt.Errorf("sciql: unknown unary operator %q", op)
}

func applyScalar(name string, args []any) (any, error) {
	// NULL in, NULL out.
	for _, a := range args {
		if a == nil {
			return nil, nil
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sciql: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	f1 := func() (float64, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return 0, fmt.Errorf("sciql: %s expects a numeric argument, got %T", name, args[0])
		}
		return f, nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		if i, ok := args[0].(int64); ok {
			if i < 0 {
				return -i, nil
			}
			return i, nil
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sciql: abs expects a number")
		}
		return math.Abs(f), nil
	case "sqrt":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		if f < 0 {
			return nil, fmt.Errorf("sciql: sqrt of negative value")
		}
		return math.Sqrt(f), nil
	case "log":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		if f <= 0 {
			return nil, fmt.Errorf("sciql: log of non-positive value")
		}
		return math.Log(f), nil
	case "exp":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		return math.Exp(f), nil
	case "floor":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		return int64(math.Floor(f)), nil
	case "ceil", "ceiling":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		return int64(math.Ceil(f)), nil
	case "round":
		f, err := f1()
		if err != nil {
			return nil, err
		}
		return int64(math.Round(f)), nil
	case "power", "pow":
		if err := need(2); err != nil {
			return nil, err
		}
		x, xok := toFloat(args[0])
		y, yok := toFloat(args[1])
		if !xok || !yok {
			return nil, fmt.Errorf("sciql: power expects numbers")
		}
		return math.Pow(x, y), nil
	case "mod":
		if err := need(2); err != nil {
			return nil, err
		}
		return applyBinary("%", args[0], args[1])
	case "greatest", "least":
		if len(args) < 1 {
			return nil, fmt.Errorf("sciql: %s needs at least one argument", name)
		}
		best, ok := toFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("sciql: %s expects numbers", name)
		}
		allInt := isInt(args[0])
		for _, a := range args[1:] {
			f, ok := toFloat(a)
			if !ok {
				return nil, fmt.Errorf("sciql: %s expects numbers", name)
			}
			allInt = allInt && isInt(a)
			if name == "greatest" && f > best || name == "least" && f < best {
				best = f
			}
		}
		if allInt {
			return int64(best), nil
		}
		return best, nil
	case "lower":
		if err := need(1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sciql: lower expects a string")
		}
		return strings.ToLower(s), nil
	case "upper":
		if err := need(1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sciql: upper expects a string")
		}
		return strings.ToUpper(s), nil
	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("sciql: length expects a string")
		}
		return int64(len(s)), nil
	}
	return nil, fmt.Errorf("sciql: unknown function %q", name)
}

func isInt(v any) bool {
	_, ok := v.(int64)
	return ok
}
