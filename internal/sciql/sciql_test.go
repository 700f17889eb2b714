package sciql

import (
	"strings"
	"testing"

	"repro/internal/column"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustExec(`CREATE TABLE products (id BIGINT, name VARCHAR, temp DOUBLE, hot BOOLEAN)`)
	e.MustExec(`INSERT INTO products VALUES
		(1, 'alpha', 311.5, true),
		(2, 'bravo', 290.0, false),
		(3, 'charlie', 320.25, true),
		(4, 'delta', 300.0, false)`)
	return e
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	res := e.MustExec(`SELECT id, name FROM products WHERE temp > 305 ORDER BY id`)
	tbl := res.Table
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Col("name").Str(0) != "alpha" || tbl.Col("name").Str(1) != "charlie" {
		t.Fatalf("names = %v", tbl.Col("name").Strs())
	}
}

func TestSelectStar(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT * FROM products`).Table
	if len(tbl.Fields) != 4 || tbl.NumRows() != 4 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), len(tbl.Fields))
	}
}

func TestExpressionsAndAliases(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT id * 2 AS double_id, temp - 273.15 celsius FROM products WHERE id = 1`).Table
	if tbl.Col("double_id").Int(0) != 2 {
		t.Fatal("arith alias")
	}
	if c := tbl.Col("celsius").Float(0); c < 38 || c > 39 {
		t.Fatalf("celsius = %g", c)
	}
}

func TestWhereOperators(t *testing.T) {
	e := newTestEngine(t)
	cases := []struct {
		where string
		want  int
	}{
		{`temp >= 300 AND temp <= 315`, 2},
		{`temp BETWEEN 300 AND 315`, 2},
		{`temp NOT BETWEEN 300 AND 315`, 2},
		{`NOT hot`, 2},
		{`hot = true`, 2},
		{`name = 'alpha' OR name = 'delta'`, 2},
		{`name <> 'alpha'`, 3},
		{`id IN (1, 3)`, 2},
		{`id NOT IN (1, 3)`, 2},
		{`name LIKE 'a'`, 0}, // LIKE unsupported -> parse/eval error expected instead
	}
	for _, c := range cases[:9] {
		tbl := e.MustExec(`SELECT id FROM products WHERE ` + c.where).Table
		if tbl.NumRows() != c.want {
			t.Errorf("WHERE %s: rows = %d, want %d", c.where, tbl.NumRows(), c.want)
		}
	}
	if _, err := e.Exec(`SELECT id FROM products WHERE name LIKE 'a%'`); err == nil {
		t.Error("LIKE should be rejected")
	}
}

func TestAggregates(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT count(*) AS n, avg(temp) AS m, min(temp) AS lo, max(temp) AS hi, sum(id) AS s FROM products`).Table
	if tbl.NumRows() != 1 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Col("n").Int(0) != 4 {
		t.Fatal("count")
	}
	if m := tbl.Col("m").Float(0); m < 305 || m > 306 {
		t.Fatalf("avg = %g", m)
	}
	if tbl.Col("lo").Float(0) != 290 || tbl.Col("hi").Float(0) != 320.25 {
		t.Fatal("min/max")
	}
	if tbl.Col("s").Int(0) != 10 {
		t.Fatal("sum int stays int")
	}
}

func TestGroupBy(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT hot, count(*) AS n, avg(temp) AS m FROM products GROUP BY hot ORDER BY n`).Table
	if tbl.NumRows() != 2 {
		t.Fatalf("groups = %d", tbl.NumRows())
	}
	// Both groups have 2 members.
	if tbl.Col("n").Int(0) != 2 || tbl.Col("n").Int(1) != 2 {
		t.Fatalf("counts = %v", tbl.Col("n").Ints())
	}
}

func TestEmptyAggregate(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT count(*) AS n, sum(temp) AS s FROM products WHERE id > 100`).Table
	if tbl.NumRows() != 1 || tbl.Col("n").Int(0) != 0 {
		t.Fatal("empty count")
	}
	if !tbl.Col("s").IsNull(0) {
		t.Fatal("empty sum should be NULL")
	}
}

func TestDistinctLimitOrder(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`INSERT INTO products VALUES (5, 'alpha', 311.5, true)`)
	tbl := e.MustExec(`SELECT DISTINCT name FROM products ORDER BY name`).Table
	if tbl.NumRows() != 4 {
		t.Fatalf("distinct rows = %d", tbl.NumRows())
	}
	if tbl.Col("name").Str(0) != "alpha" {
		t.Fatal("order")
	}
	lim := e.MustExec(`SELECT id FROM products ORDER BY id DESC LIMIT 2`).Table
	if lim.NumRows() != 2 || lim.Col("id").Int(0) != 5 {
		t.Fatalf("limit/desc = %v", lim.Col("id").Ints())
	}
}

func TestCaseExpr(t *testing.T) {
	e := newTestEngine(t)
	tbl := e.MustExec(`SELECT id, CASE WHEN temp > 310 THEN 'hot' WHEN temp > 295 THEN 'warm' ELSE 'cold' END AS class FROM products ORDER BY id`).Table
	want := []string{"hot", "cold", "hot", "warm"}
	for i, w := range want {
		if got := tbl.Col("class").Str(i); got != w {
			t.Errorf("row %d: %q, want %q", i, got, w)
		}
	}
	// CASE without ELSE yields NULL.
	tbl2 := e.MustExec(`SELECT CASE WHEN id > 100 THEN 1 END AS x FROM products LIMIT 1`).Table
	if !tbl2.Cols[0].IsNull(0) {
		t.Fatal("missing ELSE should be NULL")
	}
}

func TestScalarFunctions(t *testing.T) {
	e := NewEngine()
	tbl := e.MustExec(`SELECT abs(-5) a, sqrt(16.0) b, floor(2.7) c, ceil(2.1) d, power(2, 10) p, greatest(3, 9, 5) g, least(3, 9, 5) l, upper('fire') u, length('abc') n`).Table
	if tbl.Col("a").Int(0) != 5 {
		t.Fatal("abs")
	}
	if tbl.Col("b").Float(0) != 4 {
		t.Fatal("sqrt")
	}
	if tbl.Col("c").Int(0) != 2 || tbl.Col("d").Int(0) != 3 {
		t.Fatal("floor/ceil")
	}
	if tbl.Col("p").Float(0) != 1024 {
		t.Fatal("power")
	}
	if tbl.Col("g").Int(0) != 9 || tbl.Col("l").Int(0) != 3 {
		t.Fatal("greatest/least")
	}
	if tbl.Col("u").Str(0) != "FIRE" || tbl.Col("n").Int(0) != 3 {
		t.Fatal("string funcs")
	}
}

func TestErrorCases(t *testing.T) {
	e := newTestEngine(t)
	for _, q := range []string{
		`SELECT ghost FROM products`,
		`SELECT id FROM ghost_table`,
		`SELECT id FROM products WHERE temp / 0 > 1`,
		`SELECT sqrt(-1) FROM products`,
		`INSERT INTO ghost VALUES (1)`,
		`SELECT`,
		`SELECT id FROM products WHERE`,
		`CREATE TABLE t2 (x NOTATYPE)`,
		`SELECT unknown_func(id) FROM products`,
		`UPDATE ghost SET x = 1`,
		`DROP TABLE ghost`,
	} {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestUpdateTable(t *testing.T) {
	e := newTestEngine(t)
	res := e.MustExec(`UPDATE products SET temp = temp + 10 WHERE hot`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	tbl := e.MustExec(`SELECT temp FROM products WHERE id = 1`).Table
	if tbl.Col("temp").Float(0) != 321.5 {
		t.Fatalf("temp = %g", tbl.Col("temp").Float(0))
	}
	// Multi-column set.
	e.MustExec(`UPDATE products SET name = 'renamed', hot = false WHERE id = 1`)
	tbl2 := e.MustExec(`SELECT name, hot FROM products WHERE id = 1`).Table
	if tbl2.Col("name").Str(0) != "renamed" || tbl2.Col("hot").Bools()[0] {
		t.Fatal("multi-set")
	}
}

func TestDrop(t *testing.T) {
	e := newTestEngine(t)
	e.MustExec(`DROP TABLE products`)
	if _, err := e.Exec(`SELECT * FROM products`); err == nil {
		t.Fatal("dropped table should be gone")
	}
}

func TestArrayCreateAndScan(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY img (y INT DIMENSION [4], x INT DIMENSION [4], v DOUBLE DEFAULT 0)`)
	a, err := e.Array("img")
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 16 || len(a.Dims) != 2 {
		t.Fatal("shape")
	}
	// Cells scan as rows with dimension attributes.
	tbl := e.MustExec(`SELECT count(*) AS n FROM img`).Table
	if tbl.Col("n").Int(0) != 16 {
		t.Fatalf("cells = %d", tbl.Col("n").Int(0))
	}
	// Dimension coordinates are correct.
	tbl2 := e.MustExec(`SELECT y, x FROM img WHERE y = 2 AND x = 3`).Table
	if tbl2.NumRows() != 1 || tbl2.Col("y").Int(0) != 2 || tbl2.Col("x").Int(0) != 3 {
		t.Fatalf("coords: %d rows, y = %v, x = %v", tbl2.NumRows(), tbl2.Col("y").Ints(), tbl2.Col("x").Ints())
	}
}

func TestArrayUpdateAndDimensionPredicates(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY img (y INT DIMENSION [8], x INT DIMENSION [8], v DOUBLE)`)
	// Paint a gradient.
	e.MustExec(`UPDATE img SET v = y * 10 + x`)
	a, _ := e.Array("img")
	if a.Values["v"].At2(3, 4) != 34 {
		t.Fatalf("cell = %g", a.Values["v"].At2(3, 4))
	}
	// Cropping via dimension predicates (SciQL's demo "crop" step).
	crop := e.MustExec(`SELECT count(*) n, min(v) lo, max(v) hi FROM img WHERE y BETWEEN 2 AND 3 AND x BETWEEN 4 AND 6`).Table
	if crop.Col("n").Int(0) != 6 {
		t.Fatalf("crop cells = %d", crop.Col("n").Int(0))
	}
	if crop.Col("lo").Float(0) != 24 || crop.Col("hi").Float(0) != 36 {
		t.Fatalf("crop range = %g..%g", crop.Col("lo").Float(0), crop.Col("hi").Float(0))
	}
	// Conditional update (classification step).
	res := e.MustExec(`UPDATE img SET v = 1 WHERE v >= 50`)
	if res.Affected != 24 { // rows y=5,6,7: 8 cells each, plus y<5? no: v>=50 means y*10+x>=50 -> y>=5
		t.Fatalf("affected = %d", res.Affected)
	}
	// Self-referencing update reads pre-update values.
	e.MustExec(`UPDATE img SET v = v + 1`)
	if a.Values["v"].At2(0, 0) != 1 {
		t.Fatal("self-ref update")
	}
}

func TestArrayTiling(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY img (y INT DIMENSION [4], x INT DIMENSION [4], v DOUBLE)`)
	e.MustExec(`UPDATE img SET v = y * 4 + x`)
	// 2x2 tiling via GROUP BY on dimension arithmetic — SciQL structured
	// grouping (the feature-extraction patch step).
	tbl := e.MustExec(`SELECT y / 2 AS ty, x / 2 AS tx, avg(v) AS m FROM img GROUP BY y / 2, x / 2 ORDER BY ty, tx`).Table
	if tbl.NumRows() != 4 {
		t.Fatalf("tiles = %d", tbl.NumRows())
	}
	// Tile (0,0) holds {0,1,4,5}: mean 2.5.
	if tbl.Col("m").Float(0) != 2.5 {
		t.Fatalf("tile mean = %g", tbl.Col("m").Float(0))
	}
	// Tile (1,1) holds {10,11,14,15}: mean 12.5.
	if tbl.Col("m").Float(3) != 12.5 {
		t.Fatalf("tile mean = %g", tbl.Col("m").Float(3))
	}
}

func TestArrayJoinAlignedZip(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY a (y INT DIMENSION [16], x INT DIMENSION [16], v DOUBLE)`)
	e.MustExec(`CREATE ARRAY b (y INT DIMENSION [16], x INT DIMENSION [16], v DOUBLE)`)
	e.MustExec(`UPDATE a SET v = y + x`)
	e.MustExec(`UPDATE b SET v = y`)
	// Band-difference query (the hotspot detection idiom: IR39 - IR108).
	tbl := e.MustExec(`SELECT count(*) AS n, max(a.v - b.v) AS d FROM a, b WHERE a.y = b.y AND a.x = b.x`).Table
	if tbl.Col("n").Int(0) != 256 {
		t.Fatalf("zip rows = %d", tbl.Col("n").Int(0))
	}
	if tbl.Col("d").Float(0) != 15 {
		t.Fatalf("max diff = %g", tbl.Col("d").Float(0))
	}
}

func TestTableJoinHash(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE TABLE a (k BIGINT, name VARCHAR)`)
	e.MustExec(`CREATE TABLE b (k BIGINT, score DOUBLE)`)
	e.MustExec(`INSERT INTO a VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	e.MustExec(`INSERT INTO b VALUES (2, 0.5), (3, 0.7), (3, 0.9), (4, 0.1)`)
	tbl := e.MustExec(`SELECT a.name, b.score FROM a, b WHERE a.k = b.k ORDER BY score`).Table
	if tbl.NumRows() != 3 {
		t.Fatalf("join rows = %d", tbl.NumRows())
	}
	if tbl.Col("name").Str(0) != "y" || tbl.Col("score").Float(2) != 0.9 {
		t.Fatalf("join contents: %v %v", tbl.Col("name").Strs(), tbl.Col("score").Floats())
	}
	// Join with residual filter.
	tbl2 := e.MustExec(`SELECT a.name FROM a, b WHERE a.k = b.k AND b.score > 0.6`).Table
	if tbl2.NumRows() != 2 {
		t.Fatalf("residual join rows = %d", tbl2.NumRows())
	}
}

func TestCrossJoinGuard(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY big1 (y INT DIMENSION [4000], x INT DIMENSION [4000], v DOUBLE)`)
	e.MustExec(`CREATE ARRAY big2 (y INT DIMENSION [4000], x INT DIMENSION [4000], v DOUBLE)`)
	if _, err := e.Exec(`SELECT count(*) FROM big1, big2`); err == nil {
		t.Fatal("unbounded cross product should be rejected")
	}
}

func TestCreateArrayAsSelect(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY src (y INT DIMENSION [4], x INT DIMENSION [4], v DOUBLE)`)
	e.MustExec(`UPDATE src SET v = y * 4 + x`)
	// Crop into a new array: dimension coords shifted to start at 0.
	e.MustExec(`CREATE ARRAY crop AS SELECT y - 1 AS y, x - 1 AS x, v FROM src WHERE y BETWEEN 1 AND 2 AND x BETWEEN 1 AND 2`)
	a, err := e.Array("crop")
	if err != nil {
		t.Fatal(err)
	}
	if a.Dims[0].Size != 2 || a.Dims[1].Size != 2 {
		t.Fatalf("crop dims = %v", a.Dims)
	}
	if a.Values["v"].At2(0, 0) != 5 || a.Values["v"].At2(1, 1) != 10 {
		t.Fatalf("crop cells = %g %g", a.Values["v"].At2(0, 0), a.Values["v"].At2(1, 1))
	}
	// Errors: non-integer dims, negative coords.
	if _, err := e.Exec(`CREATE ARRAY bad AS SELECT v, v FROM src`); err == nil {
		t.Fatal("non-integer dimension should fail")
	}
	if _, err := e.Exec(`CREATE ARRAY bad AS SELECT y - 10 AS y, v FROM src`); err == nil {
		t.Fatal("negative coordinate should fail")
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := NewEngine()
	tbl := e.MustExec(`SELECT 1 + 1 AS two, 'fire' AS s, true AS b`).Table
	if tbl.Col("two").Int(0) != 2 || tbl.Col("s").Str(0) != "fire" || !tbl.Col("b").Bools()[0] {
		t.Fatal("constant select")
	}
}

func TestNullHandling(t *testing.T) {
	e := NewEngine()
	e.MustExec(`CREATE TABLE t (x BIGINT, y DOUBLE)`)
	e.MustExec(`INSERT INTO t VALUES (1, 2.0), (2, NULL), (NULL, 4.0)`)
	// NULL never matches comparisons.
	if got := e.MustExec(`SELECT x FROM t WHERE y > 0`).Table.NumRows(); got != 2 {
		t.Fatalf("rows = %d", got)
	}
	// IS NULL / IS NOT NULL.
	if got := e.MustExec(`SELECT x FROM t WHERE y IS NULL`).Table.NumRows(); got != 1 {
		t.Fatal("IS NULL")
	}
	if got := e.MustExec(`SELECT x FROM t WHERE x IS NOT NULL`).Table.NumRows(); got != 2 {
		t.Fatal("IS NOT NULL")
	}
	// Aggregates skip NULLs.
	tbl := e.MustExec(`SELECT count(y) AS c, avg(y) AS m FROM t`).Table
	if tbl.Col("c").Int(0) != 2 || tbl.Col("m").Float(0) != 3 {
		t.Fatalf("agg over nulls = %v %v", tbl.Col("c").Int(0), tbl.Col("m").Float(0))
	}
	// NULL propagates through arithmetic.
	tbl2 := e.MustExec(`SELECT y + 1 AS z FROM t WHERE x = 2`).Table
	if !tbl2.Col("z").IsNull(0) {
		t.Fatal("null arithmetic")
	}
}

func TestStringConcat(t *testing.T) {
	e := NewEngine()
	tbl := e.MustExec(`SELECT 'a' || 'b' || 'c' AS s`).Table
	if tbl.Col("s").Str(0) != "abc" {
		t.Fatal("concat")
	}
}

func TestRegisterExternalTable(t *testing.T) {
	e := NewEngine()
	tbl := column.NewTable("ext", column.Field{Name: "id", Typ: column.Int64})
	if err := tbl.AppendRow(int64(7)); err != nil {
		t.Fatal(err)
	}
	e.RegisterTable(tbl)
	got := e.MustExec(`SELECT id FROM ext`).Table
	if got.Col("id").Int(0) != 7 {
		t.Fatal("registered table")
	}
}

func TestParseErrorMessagesMentionOffset(t *testing.T) {
	_, err := Parse(`SELECT FROM x`)
	if err == nil || !strings.Contains(err.Error(), "sciql:") {
		t.Fatalf("err = %v", err)
	}
}

func TestComments(t *testing.T) {
	e := NewEngine()
	tbl := e.MustExec("SELECT 1 AS x -- trailing comment\n").Table
	if tbl.Col("x").Int(0) != 1 {
		t.Fatal("comment handling")
	}
}
