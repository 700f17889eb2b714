package sciql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// The equivalence suite: randomized SELECT, UPDATE and DELETE statements
// over identical catalogs must behave identically — the same rows in the
// same order with the same column types, the same error text, the same
// affected counts and post-mutation state — on the compiled executor and
// on the reference evaluator (oracle_test.go), at every worker-pool
// parallelism level.

// equivSetup are the statements that build the shared catalog.
func equivSetup(rng *rand.Rand) []string {
	stmts := []string{
		`CREATE TABLE obs (id BIGINT, sensor VARCHAR, temp DOUBLE, flag BOOLEAN)`,
		`CREATE TABLE sites (k BIGINT, name VARCHAR, score DOUBLE)`,
		`CREATE ARRAY img (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`,
		`CREATE ARRAY img2 (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`,
		`CREATE ARRAY cube (z INT DIMENSION [4], y INT DIMENSION [6], x INT DIMENSION [5], v DOUBLE)`,
	}
	var rows []string
	for i := 0; i < 120; i++ {
		id := "NULL"
		if rng.Intn(8) != 0 {
			id = fmt.Sprint(rng.Intn(40))
		}
		sensor := fmt.Sprintf("'s%d'", rng.Intn(5))
		if rng.Intn(9) == 0 {
			sensor = "NULL"
		}
		temp := fmt.Sprintf("%.2f", 270+rng.Float64()*80)
		if rng.Intn(7) == 0 {
			temp = "NULL"
		}
		flag := "true"
		if rng.Intn(2) == 0 {
			flag = "false"
		}
		if rng.Intn(10) == 0 {
			flag = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%s, %s, %s, %s)", id, sensor, temp, flag))
	}
	stmts = append(stmts, "INSERT INTO obs VALUES "+strings.Join(rows, ", "))
	rows = rows[:0]
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'n%d', %.3f)", rng.Intn(40), rng.Intn(8), rng.Float64()))
	}
	stmts = append(stmts, "INSERT INTO sites VALUES "+strings.Join(rows, ", "))
	stmts = append(stmts,
		`UPDATE img SET v = y * 10 + x`,
		`UPDATE img SET v = NULL WHERE (y + x) % 7 = 3`,
		`UPDATE img2 SET v = (y - 5) * (x - 4)`,
		`UPDATE cube SET v = z * 100 + y * 10 + x`,
		`UPDATE cube SET v = NULL WHERE x = 2 AND y > 3`,
	)
	return stmts
}

// equivPair builds the shared catalog twice: on the oracle and on the
// executor.
func equivPair(t *testing.T, rng *rand.Rand) (ref, eng *Engine) {
	t.Helper()
	ref, eng = NewEngine(), NewEngine()
	for _, st := range equivSetup(rng) {
		if _, err := ref.oracleExec(st); err != nil {
			t.Fatalf("oracle setup %q: %v", st, err)
		}
		eng.MustExec(st)
	}
	return ref, eng
}

// render is a statement's outcome as text: the error, the affected count,
// or a "name:TYPE|…" header and one line per row in result order.
func render(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if res.Table == nil {
		return fmt.Sprintf("affected=%d", res.Affected)
	}
	tbl := res.Table
	var sb strings.Builder
	for j, f := range tbl.Fields {
		if j > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "%s:%s", f.Name, f.Typ)
	}
	for i := 0; i < tbl.NumRows(); i++ {
		sb.WriteByte('\n')
		for j, c := range tbl.Cols {
			if j > 0 {
				sb.WriteByte('|')
			}
			if v := c.Value(i); v == nil {
				sb.WriteString("NULL")
			} else {
				fmt.Fprint(&sb, v)
			}
		}
	}
	return sb.String()
}

type equivGen struct {
	rng *rand.Rand
	// bad lists the wrong-typed operands the current statement may draw.
	bad []string
	// classes records which of the shapes the executor once refused the
	// current statement draws (see refusedClasses).
	classes map[string]bool
}

// The statement shapes the executor used to hand to the interpreter
// whole. The suite checks that every level of the corpus reaches each.
const (
	classNoFrom    = "FROM-less SELECT"
	classAggArith  = "aggregate under an expression"
	classMixedCase = "CASE with BIGINT and DOUBLE arms"
	classCross     = "join without an equi-join"
	classThreeWay  = "three-way join"
	classBadType   = "operand of the wrong type"
	classBadSet    = "SET value of the wrong type"
	classConcat    = "|| over numbers"
)

var refusedClasses = []string{classNoFrom, classAggArith, classMixedCase, classCross, classThreeWay, classBadType, classBadSet, classConcat}

func (g *equivGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

func (g *equivGen) numLit() string {
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%.2f", g.rng.Float64()*100)
	}
	return fmt.Sprint(g.rng.Intn(100))
}

// leaf draws a column, a number, or (rarely) a wrong-typed operand.
func (g *equivGen) leaf(cols []string) string {
	if g.rng.Intn(25) == 0 {
		g.classes[classBadType] = true
		return g.pick(g.bad...)
	}
	if g.rng.Intn(2) == 0 {
		return g.pick(cols...)
	}
	return g.numLit()
}

// scalarExpr builds a random numeric expression over the given columns.
func (g *equivGen) scalarExpr(cols []string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf(cols)
	}
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	case 7:
		// Fails on negative values, with another message than division:
		// a statement can then fail differently on different rows.
		return fmt.Sprintf("sqrt(%s - %s)", g.scalarExpr(cols, depth-1), g.numLit())
	case 1:
		return fmt.Sprintf("(%s - %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	case 3:
		// Division (may legitimately fail on both engines).
		return fmt.Sprintf("(%s / %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	case 4:
		return fmt.Sprintf("abs(%s - %s)", g.scalarExpr(cols, depth-1), g.numLit())
	case 5:
		return fmt.Sprintf("least(%s, %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	case 6:
		// One BIGINT arm and one DOUBLE arm.
		g.classes[classMixedCase] = true
		return fmt.Sprintf("CASE WHEN %s THEN %d ELSE %.1f END",
			g.boolExpr(cols, 1), g.rng.Intn(9), g.rng.Float64()*9)
	default:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
			g.boolExpr(cols, 1), g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	}
}

func (g *equivGen) boolExpr(cols []string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		c := g.leaf(cols)
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s %s %s", c, g.pick("<", "<=", ">", ">=", "=", "<>"), g.numLit())
		case 1:
			return fmt.Sprintf("%s BETWEEN %s AND %s", c, fmt.Sprint(g.rng.Intn(50)), fmt.Sprint(50+g.rng.Intn(60)))
		case 2:
			return fmt.Sprintf("%s IS %sNULL", c, g.pick("", "NOT "))
		case 3:
			return fmt.Sprintf("%s IN (%s, %s, %s)", c, g.numLit(), g.leaf(cols), g.pick(g.numLit(), "NULL"))
		case 4:
			return fmt.Sprintf("%s %s %s", c, g.pick("<", ">", "="), g.leaf(cols))
		default:
			return fmt.Sprintf("%s NOT BETWEEN %s AND %s", c, g.numLit(), g.numLit())
		}
	}
	op := g.pick("AND", "OR")
	l := g.boolExpr(cols, depth-1)
	r := g.boolExpr(cols, depth-1)
	if g.rng.Intn(5) == 0 {
		return fmt.Sprintf("NOT (%s %s %s)", l, op, r)
	}
	return fmt.Sprintf("(%s %s %s)", l, op, r)
}

// selectStmt generates one random SELECT.
func (g *equivGen) selectStmt() string {
	type source struct {
		from  string
		cols  []string
		dims  []string
		join  string
		bad   []string
		class string
	}
	sources := []source{
		{from: "obs", cols: []string{"id", "temp"}, bad: []string{"sensor", "flag"}},
		{from: "sites", cols: []string{"k", "score"}, bad: []string{"name"}},
		{from: "img", cols: []string{"y", "x", "v"}, dims: []string{"y", "x"}},
		{from: "cube", cols: []string{"z", "y", "x", "v"}, dims: []string{"z", "y", "x"}},
		{from: "img a, img2 b", cols: []string{"a.v", "b.v", "a.y", "a.x"}, dims: []string{"a.y", "b.x"},
			join: "a.y = b.y AND a.x = b.x"},
		{from: "obs, sites", cols: []string{"id", "temp", "score"}, bad: []string{"sensor", "name"},
			join: "obs.id = sites.k"},
		{from: "obs, sites", cols: []string{"id", "temp", "k", "score"}, bad: []string{"flag"},
			join: g.pick("id < k", "temp > score * 400", "k = 3"), class: classCross},
		{from: "sites, sites s2, img", cols: []string{"sites.k", "s2.score", "x", "v"},
			join: "sites.k = s2.k AND y = 1", class: classThreeWay},
		{from: "", cols: []string{"7", "2.5", "(0 - 3)"}, class: classNoFrom},
	}
	src := sources[g.rng.Intn(len(sources))]
	g.bad = append(src.bad, "'s1'", "true", "NULL")
	if src.class != "" {
		g.classes[src.class] = true
	}

	var where []string
	if src.join != "" {
		where = append(where, src.join)
	}
	if g.rng.Intn(4) != 0 {
		where = append(where, g.boolExpr(src.cols, g.rng.Intn(3)))
	}
	// Dimension predicates exercise the pushdown.
	for _, d := range src.dims {
		if g.rng.Intn(3) == 0 {
			if g.rng.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("%s BETWEEN %d AND %d", d, g.rng.Intn(5), 3+g.rng.Intn(8)))
			} else {
				where = append(where, fmt.Sprintf("%s %s %d", d, g.pick("=", "<", "<=", ">", ">="), g.rng.Intn(10)))
			}
		}
	}

	var items []string
	agg := g.rng.Intn(3) == 0
	var groupBy []string
	if agg {
		if g.rng.Intn(2) == 0 && len(src.cols) > 1 {
			ge := g.pick(src.cols...)
			if g.rng.Intn(2) == 0 {
				ge = fmt.Sprintf("%s / %d", ge, 2+g.rng.Intn(3))
			}
			groupBy = append(groupBy, ge)
			items = append(items, ge+" AS gk")
		}
		fn := g.pick("count", "sum", "avg", "min", "max")
		arg := g.scalarExpr(src.cols, 1)
		if fn == "count" && g.rng.Intn(2) == 0 {
			items = append(items, "count(*) AS n")
		} else {
			items = append(items, fmt.Sprintf("%s(%s) AS a1", fn, arg))
		}
		if g.rng.Intn(2) == 0 {
			items = append(items, fmt.Sprintf("%s(%s) AS a2", g.pick("min", "max", "sum"), g.pick(src.cols...)))
		}
		if g.rng.Intn(2) == 0 {
			// Aggregates under an expression, and a column outside one
			// (it reads the group's first row).
			g.classes[classAggArith] = true
			c := g.pick(src.cols...)
			items = append(items, g.pick(
				fmt.Sprintf("count(*) + %d AS a3", g.rng.Intn(5)),
				fmt.Sprintf("max(%s) - min(%s) AS a3", c, c),
				fmt.Sprintf("sum(%s) / count(*) AS a3", c),
				fmt.Sprintf("CASE WHEN count(*) > %d THEN max(%s) ELSE 0 END AS a3", g.rng.Intn(20), c),
				fmt.Sprintf("%s + count(*) AS a3", c),
			))
		}
	} else {
		if g.rng.Intn(6) == 0 && src.from != "" {
			items = append(items, "*")
		} else {
			n := 1 + g.rng.Intn(3)
			for i := 0; i < n; i++ {
				switch g.rng.Intn(8) {
				case 0, 1:
					items = append(items, fmt.Sprintf("%s AS e%d", g.scalarExpr(src.cols, 2), i))
				case 2:
					g.classes[classConcat] = true
					items = append(items, fmt.Sprintf("(%s || %s) AS e%d", g.scalarExpr(src.cols, 1), g.leaf(src.cols), i))
				case 3:
					// Two items that fail on some rows only, with different
					// messages: the error reported is the first in row
					// order, whichever item raises it.
					items = append(items,
						fmt.Sprintf("10 / (%s - %d) AS e%d", g.pick(src.cols...), g.rng.Intn(12), i),
						fmt.Sprintf("sqrt(%s - %d) AS f%d", g.pick(src.cols...), g.rng.Intn(12), i))
				default:
					items = append(items, g.pick(src.cols...))
				}
			}
		}
	}

	q := "SELECT "
	if g.rng.Intn(6) == 0 {
		q += "DISTINCT "
	}
	q += strings.Join(items, ", ")
	if src.from != "" {
		q += " FROM " + src.from
	}
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	if len(groupBy) > 0 {
		q += " GROUP BY " + strings.Join(groupBy, ", ")
	}
	if g.rng.Intn(4) == 0 && !strings.Contains(q, "*") && !agg {
		// ORDER BY a projected alias or bare column name.
		it := items[g.rng.Intn(len(items))]
		name := it
		if i := strings.LastIndex(it, " AS "); i >= 0 {
			name = it[i+4:]
		}
		if !strings.ContainsAny(name, ".( ") && !strings.ContainsAny(name[:1], "0123456789") {
			q += " ORDER BY " + name
			if g.rng.Intn(2) == 0 {
				q += " DESC"
			}
		}
	}
	if g.rng.Intn(4) == 0 {
		q += fmt.Sprintf(" LIMIT %d", g.rng.Intn(12))
	}
	return q
}

func (g *equivGen) updateStmt() string {
	g.bad = []string{"'s1'", "true", "NULL"}
	switch g.rng.Intn(4) {
	case 0: // array update, often with dimension predicates (fused path)
		set := fmt.Sprintf("v = %s", g.scalarExpr([]string{"y", "x", "v"}, 2))
		switch g.rng.Intn(12) {
		case 0, 1:
			set = "v = NULL"
		case 2, 3:
			g.classes[classBadSet] = true
			set = "v = " + g.pick("'hot'", "y > 3")
		}
		var where []string
		if g.rng.Intn(2) == 0 {
			where = append(where, fmt.Sprintf("y BETWEEN %d AND %d", g.rng.Intn(6), 4+g.rng.Intn(8)))
		}
		if g.rng.Intn(3) == 0 {
			where = append(where, g.boolExpr([]string{"v", "x"}, 1))
		}
		q := "UPDATE img SET " + set
		if len(where) > 0 {
			q += " WHERE " + strings.Join(where, " AND ")
		}
		return q
	case 1: // table update
		sets := []string{fmt.Sprintf("temp = %s", g.scalarExpr([]string{"temp", "id"}, 1))}
		if g.rng.Intn(3) == 0 {
			sets = append(sets, fmt.Sprintf("flag = %s", g.pick("true", "false", "NULL", "temp > 300")))
		}
		if g.rng.Intn(3) == 0 {
			g.classes[classBadSet] = true
			sets = append(sets, g.pick("sensor = id", "flag = 1", "id = 'x'", "sensor = 'r' || id"))
		}
		q := "UPDATE obs SET " + strings.Join(sets, ", ")
		if g.rng.Intn(2) == 0 {
			q += " WHERE " + g.boolExpr([]string{"id", "temp"}, 1)
		}
		return q
	case 2: // delete (bounded so the table never empties out)
		return fmt.Sprintf("DELETE FROM sites WHERE k = %d AND score < %.2f", g.rng.Intn(40), g.rng.Float64())
	default: // rank-3 array update
		return fmt.Sprintf("UPDATE cube SET v = %s WHERE z = %d",
			g.scalarExpr([]string{"z", "y", "x", "v"}, 1), g.rng.Intn(4))
	}
}

// The corpus: equivStatements statements per worker level, seeded
// equivSeed+workers.
const (
	equivSeed       = 20260729
	equivStatements = 260
)

// next generates the corpus's next statement; one in four is a mutation.
func (g *equivGen) next() (stmt string, isUpdate bool) {
	g.classes = map[string]bool{}
	if g.rng.Intn(4) == 0 {
		return g.updateStmt(), true
	}
	return g.selectStmt(), false
}

func runEquivSuite(t *testing.T, seed int64, nStatements int) {
	rng := rand.New(rand.NewSource(seed))
	ref, eng := equivPair(t, rng)
	g := &equivGen{rng: rng}
	reached := map[string]int{}
	failed := 0
	for i := 0; i < nStatements; i++ {
		stmt, isUpdate := g.next()
		want := render(ref.oracleExec(stmt))
		got := render(eng.Exec(stmt))
		if want != got {
			t.Fatalf("statement #%d diverged:\nstmt: %s\noracle:\n%s\nexecutor:\n%s", i, stmt, want, got)
		}
		if strings.HasPrefix(want, "error: ") {
			failed++
		}
		for c := range g.classes {
			reached[c]++
		}
		if isUpdate {
			// After a mutation, compare the full target state.
			for _, check := range []string{
				`SELECT * FROM obs`, `SELECT * FROM sites`,
				`SELECT y, x, v FROM img`, `SELECT z, y, x, v FROM cube`,
			} {
				if w, v := render(ref.oracleExec(check)), render(eng.Exec(check)); w != v {
					t.Fatalf("state diverged after #%d %q (check %q)", i, stmt, check)
				}
			}
		}
	}
	for _, c := range refusedClasses {
		if reached[c] == 0 {
			t.Errorf("the corpus never drew a statement with a %s", c)
		}
	}
	t.Logf("%d statements, %d failed on both; shapes reached: %v", nStatements, failed, reached)
}

func TestVectorizedEquivalenceRandomized(t *testing.T) {
	// The worker pool at 1, 2 and default parallelism.
	for _, workers := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetParallelism(workers)
			defer parallel.SetParallelism(prev)
			runEquivSuite(t, equivSeed+int64(workers), equivStatements)
		})
	}
}

// TestVectorizedEquivalenceCreateArrayAsSelect pins the CREATE ARRAY AS
// SELECT path (crop + shift, the demo's declarative chain) against the
// oracle.
func TestVectorizedEquivalenceCreateArrayAsSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref, eng := equivPair(t, rng)
	stmts := []string{
		`CREATE ARRAY crop AS SELECT y - 2 AS y, x - 1 AS x, v FROM img WHERE y BETWEEN 2 AND 9 AND x BETWEEN 1 AND 8`,
		`CREATE ARRAY mask AS SELECT y, x, CASE WHEN v >= 50 THEN 1.0 ELSE 0.0 END AS v FROM img WHERE v IS NOT NULL`,
	}
	for _, stmt := range stmts {
		if w, v := render(ref.oracleExec(stmt)), render(eng.Exec(stmt)); w != v {
			t.Fatalf("%s:\noracle=%s\nexecutor=%s", stmt, w, v)
		}
	}
	for _, check := range []string{`SELECT y, x, v FROM crop`, `SELECT count(*) AS n, sum(v) AS s FROM mask`} {
		if w, v := render(ref.oracleExec(check)), render(eng.Exec(check)); w != v {
			t.Fatalf("CREATE ARRAY AS SELECT diverged on %q:\noracle=%s\nexecutor=%s", check, w, v)
		}
	}
}
