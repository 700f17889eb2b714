package sciql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/parallel"
)

// The legacy-vs-vectorized equivalence suite: randomized SELECT, UPDATE
// and DELETE statements over identical catalogs must behave identically
// (same error-or-success, same rows in the same order, same affected
// counts and post-update state) under the tuple-at-a-time interpreter
// and the columnar kernel executor, at every worker-pool parallelism
// level. Statements the vectorized compiler rejects fall back to the
// legacy interpreter, so any divergence here is a genuine kernel bug.

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

func equivPair(t *testing.T, rng *rand.Rand) (legacy, vec *Engine) {
	t.Helper()
	legacy = NewEngine()
	legacy.forceInterpreter = true
	vec = NewEngine()
	for _, st := range equivSetup(rng) {
		legacy.MustExec(st)
		vec.MustExec(st)
	}
	return legacy, vec
}

// canonTable renders a result table as one line per row, in result
// order (the vectorized executor reproduces legacy row order exactly,
// so the comparison is order-sensitive on purpose).
func canonTable(tbl *column.Table) []string {
	if tbl == nil {
		return nil
	}
	out := make([]string, 0, tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		var sb strings.Builder
		for j, c := range tbl.Cols {
			fmt.Fprintf(&sb, "%s=%v|", tbl.Fields[j].Name, c.Value(i))
		}
		out = append(out, sb.String())
	}
	return out
}

type equivGen struct {
	rng *rand.Rand
}

func (g *equivGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

func (g *equivGen) numLit() string {
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%.2f", g.rng.Float64()*100)
	}
	return fmt.Sprint(g.rng.Intn(100))
}

// scalarExpr builds a random numeric expression over the given columns.
func (g *equivGen) scalarExpr(cols []string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.pick(cols...)
		}
		return g.numLit()
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
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
	default:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END",
			g.boolExpr(cols, 1), g.scalarExpr(cols, depth-1), g.scalarExpr(cols, depth-1))
	}
}

func (g *equivGen) boolExpr(cols []string, depth int) string {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		c := g.pick(cols...)
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s %s %s", c, g.pick("<", "<=", ">", ">=", "=", "<>"), g.numLit())
		case 1:
			return fmt.Sprintf("%s BETWEEN %s AND %s", c, fmt.Sprint(g.rng.Intn(50)), fmt.Sprint(50+g.rng.Intn(60)))
		case 2:
			return fmt.Sprintf("%s IS %sNULL", c, g.pick("", "NOT "))
		case 3:
			return fmt.Sprintf("%s IN (%s, %s, %s)", c, g.numLit(), g.numLit(), g.pick(g.numLit(), "NULL"))
		case 4:
			return fmt.Sprintf("%s %s %s", c, g.pick("<", ">", "="), g.pick(cols...))
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
		from string
		cols []string
		dims []string
		join string
	}
	sources := []source{
		{from: "obs", cols: []string{"id", "temp"}},
		{from: "sites", cols: []string{"k", "score"}},
		{from: "img", cols: []string{"y", "x", "v"}, dims: []string{"y", "x"}},
		{from: "cube", cols: []string{"z", "y", "x", "v"}, dims: []string{"z", "y", "x"}},
		{from: "img a, img2 b", cols: []string{"a.v", "b.v", "a.y", "a.x"}, dims: []string{"a.y", "b.x"},
			join: "a.y = b.y AND a.x = b.x"},
		{from: "obs, sites", cols: []string{"id", "temp", "score"},
			join: "obs.id = sites.k"},
	}
	src := sources[g.rng.Intn(len(sources))]

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
	} else {
		if g.rng.Intn(6) == 0 {
			items = append(items, "*")
		} else {
			n := 1 + g.rng.Intn(3)
			for i := 0; i < n; i++ {
				if g.rng.Intn(3) == 0 {
					items = append(items, fmt.Sprintf("%s AS e%d", g.scalarExpr(src.cols, 2), i))
				} else {
					items = append(items, g.pick(src.cols...))
				}
			}
		}
	}

	q := "SELECT "
	if g.rng.Intn(6) == 0 {
		q += "DISTINCT "
	}
	q += strings.Join(items, ", ") + " FROM " + src.from
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
		if !strings.Contains(name, ".") && !strings.Contains(name, "(") && !strings.Contains(name, " ") {
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
	switch g.rng.Intn(4) {
	case 0: // array update, often with dimension predicates (fused path)
		set := fmt.Sprintf("v = %s", g.scalarExpr([]string{"y", "x", "v"}, 2))
		if g.rng.Intn(6) == 0 {
			set = "v = NULL"
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
			sets = append(sets, fmt.Sprintf("flag = %s", g.pick("true", "false", "NULL")))
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
// equivSeed+workers. The fallback census (census_test.go) replays the
// same streams.
const (
	equivSeed       = 20260729
	equivStatements = 260
)

// next generates the corpus's next statement; one in four is a mutation.
func (g *equivGen) next() (stmt string, isUpdate bool) {
	if g.rng.Intn(4) == 0 {
		return g.updateStmt(), true
	}
	return g.selectStmt(), false
}

func runEquivSuite(t *testing.T, seed int64, nStatements int) {
	rng := rand.New(rand.NewSource(seed))
	legacy, vec := equivPair(t, rng)
	g := &equivGen{rng: rng}
	for i := 0; i < nStatements; i++ {
		stmt, isUpdate := g.next()
		lres, lerr := legacy.Exec(stmt)
		vres, verr := vec.Exec(stmt)
		if (lerr == nil) != (verr == nil) {
			t.Fatalf("statement #%d error mismatch:\nlegacy=%v\nvec=%v\nstmt: %s", i, lerr, verr, stmt)
		}
		if lerr != nil {
			continue
		}
		if lres.Affected != vres.Affected {
			t.Fatalf("statement #%d affected: legacy=%d vec=%d\nstmt: %s", i, lres.Affected, vres.Affected, stmt)
		}
		lc, vc := canonTable(lres.Table), canonTable(vres.Table)
		if len(lc) != len(vc) {
			t.Fatalf("statement #%d rows: legacy=%d vec=%d\nstmt: %s", i, len(lc), len(vc), stmt)
		}
		for r := range lc {
			if lc[r] != vc[r] {
				t.Fatalf("statement #%d row %d differs:\nlegacy: %s\nvec:    %s\nstmt: %s", i, r, lc[r], vc[r], stmt)
			}
		}
		if isUpdate {
			// After a mutation, compare the full target state.
			for _, check := range []string{
				`SELECT * FROM obs`, `SELECT * FROM sites`,
				`SELECT y, x, v FROM img`, `SELECT z, y, x, v FROM cube`,
			} {
				lt := canonTable(legacy.MustExec(check).Table)
				vt := canonTable(vec.MustExec(check).Table)
				if strings.Join(lt, "\n") != strings.Join(vt, "\n") {
					t.Fatalf("state diverged after #%d %q (check %q)", i, stmt, check)
				}
			}
		}
	}
}

func TestVectorizedEquivalenceRandomized(t *testing.T) {
	// All ablation modes: the worker pool at 1, 2 and default parallelism
	// (the vectorized-off mode IS the legacy reference itself).
	for _, workers := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.SetParallelism(workers)
			defer parallel.SetParallelism(prev)
			runEquivSuite(t, equivSeed+int64(workers), equivStatements)
		})
	}
}

// TestVectorizedEquivalenceCreateArrayAsSelect pins the CREATE ARRAY AS
// SELECT path (crop + shift, the demo's declarative chain) across both
// executors.
func TestVectorizedEquivalenceCreateArrayAsSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	legacy, vec := equivPair(t, rng)
	stmts := []string{
		`CREATE ARRAY crop AS SELECT y - 2 AS y, x - 1 AS x, v FROM img WHERE y BETWEEN 2 AND 9 AND x BETWEEN 1 AND 8`,
		`CREATE ARRAY mask AS SELECT y, x, CASE WHEN v >= 50 THEN 1.0 ELSE 0.0 END AS v FROM img WHERE v IS NOT NULL`,
	}
	for _, stmt := range stmts {
		legacy.MustExec(stmt)
		vec.MustExec(stmt)
	}
	for _, check := range []string{`SELECT y, x, v FROM crop`, `SELECT count(*) AS n, sum(v) AS s FROM mask`} {
		lt := canonTable(legacy.MustExec(check).Table)
		vt := canonTable(vec.MustExec(check).Table)
		if strings.Join(lt, "\n") != strings.Join(vt, "\n") {
			t.Fatalf("CREATE ARRAY AS SELECT diverged on %q:\nlegacy=%v\nvec=%v", check, lt, vt)
		}
	}
}
