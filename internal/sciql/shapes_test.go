package sciql

import "testing"

// TestSciQLShapes checks statement shapes against answers written by
// hand, on the executor and on the oracle alike: rows in order, column
// types and error text (see render). It covers every shape the executor
// once handed to the interpreter whole, the rules that replaced those
// refusals (type errors as kernels, any number of relations in one
// solution space, aggregates as columns over the group space), the
// interpreter's row order for errors, and three answers the
// executor-plus-fallback pair used to get wrong: a CASE column that took
// its first row's kind, a non-aggregate item read from a row the WHERE
// had removed, and a panic over an empty table.
func TestSciQLShapes(t *testing.T) {
	setup := []string{
		`CREATE TABLE obs (id BIGINT, sensor VARCHAR, temp DOUBLE, flag BOOLEAN)`,
		`INSERT INTO obs VALUES (1, 's1', 290.5, true), (2, 's2', 310.25, false), (3, NULL, 305.0, true), (4, 's1', NULL, NULL)`,
		`CREATE TABLE sites (k BIGINT, name VARCHAR, score DOUBLE)`,
		`INSERT INTO sites VALUES (2, 'n1', 0.5), (3, 'n2', 0.75), (3, 'n3', 0.25)`,
		`CREATE ARRAY img (y INT DIMENSION [2], x INT DIMENSION [3], v DOUBLE)`,
		`UPDATE img SET v = y * 10 + x`,
		`CREATE TABLE t (id BIGINT, temp DOUBLE)`,
		`INSERT INTO t VALUES (1, 10.5), (2, 20.75)`,
		`CREATE TABLE e (id BIGINT, temp DOUBLE)`,
		`CREATE TABLE ins (id BIGINT, temp DOUBLE)`,
		// The catalog internal/noa's RunSciQL builds (ingest.RegisterFrame
		// names band arrays <prefix>_<band>).
		`CREATE ARRAY frame_IR_039 (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`,
		`CREATE ARRAY frame_IR_108 (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`,
		`UPDATE frame_IR_039 SET v = 300 + y * 2 + x`,
		`UPDATE frame_IR_108 SET v = 295 + x`,
		`CREATE TABLE w (x BIGINT, y BIGINT)`,
		`CREATE TABLE nx (x BIGINT)`,
		`INSERT INTO nx VALUES (NULL), (1)`,
		`CREATE TABLE dd (a VARCHAR, b VARCHAR)`,
		`INSERT INTO dd VALUES ('a|', 'b'), ('a', '|b'), (NULL, 'x'), ('<nil>', 'x')`,
	}
	ref, eng := NewEngine(), NewEngine()
	for _, st := range setup {
		if _, err := ref.oracleExec(st); err != nil {
			t.Fatalf("oracle setup %q: %v", st, err)
		}
		eng.MustExec(st)
	}
	cases := []struct{ name, stmt, want string }{
		// The three wrong answers.
		{"CASE with BIGINT and DOUBLE arms is DOUBLE",
			`SELECT CASE WHEN id < 2 THEN id ELSE temp END AS c FROM t`,
			"c:DOUBLE\n1\n20.75"},
		{"non-aggregate item of a global aggregate over no surviving row",
			`SELECT count(*) AS n, id FROM t WHERE id > 5`,
			"n:BIGINT|id:BIGINT\n0|NULL"},
		{"non-aggregate item of a global aggregate over an empty table",
			`SELECT count(*) AS n, id FROM e`,
			"n:BIGINT|id:BIGINT\n0|NULL"},

		// Shapes the executor once refused.
		{"no FROM clause", `SELECT 1 + 1 AS two`, "two:BIGINT\n2"},
		{"aggregate inside arithmetic", `SELECT count(*) + 1 AS n FROM obs`, "n:BIGINT\n5"},
		{"arithmetic over two aggregates", `SELECT max(v) - min(v) AS spread FROM img`, "spread:DOUBLE\n12"},
		{"CASE with BIGINT and DOUBLE arms over a column",
			`SELECT CASE WHEN temp > 300 THEN id ELSE temp END AS c FROM obs`,
			"c:DOUBLE\n290.5\n2\n3\nNULL"},
		{"cross product without an equi-join",
			`SELECT id, k FROM obs, sites WHERE id < k`,
			"id:BIGINT|k:BIGINT\n1|2\n1|3\n1|3\n2|3\n2|3"},
		{"three-way join",
			`SELECT obs.id, s2.name FROM obs, sites, sites s2 WHERE obs.id = sites.k AND sites.k = s2.k`,
			"id:BIGINT|name:VARCHAR\n2|n1\n3|n2\n3|n3\n3|n2\n3|n3"},
		{"SET a VARCHAR column from a number",
			`UPDATE obs SET sensor = 5 WHERE id = 1`,
			"error: sciql: cannot assign int64 to VARCHAR"},
		{"... leaves the table untouched", `SELECT sensor FROM obs WHERE id = 1`, "sensor:VARCHAR\ns1"},
		{"unknown column", `SELECT id FROM obs WHERE ghost > 1`, `error: sciql: unknown column "ghost"`},
		{"unknown column over no rows", `SELECT id FROM e WHERE ghost > 1`, "id:BIGINT"},
		{"unknown UPDATE target", `UPDATE ghost SET v = 1`, `error: sciql: unknown table or array "ghost"`},
		{"DELETE from an array", `DELETE FROM img WHERE v > 3`,
			"error: sciql: DELETE applies to tables; blank array cells with UPDATE img SET <attr> = NULL"},
		{"DELETE with an unknown column", `DELETE FROM sites WHERE ghost = 1`, `error: sciql: unknown column "ghost"`},
		{"DELETE with an unknown column over no rows", `DELETE FROM e WHERE ghost = 1`, "affected=0"},
		{"string concatenation over a column",
			`SELECT 'a' || 'b' || sensor AS s FROM obs`, "s:VARCHAR\nabs1\nabs2\nNULL\nabs1"},
		{"|| over numbers", `SELECT id || temp AS s FROM t`, "s:VARCHAR\n110.5\n220.75"},
		// internal/noa Chain.RunSciQL: crop by dimension predicates,
		// aligned array join, CASE classification; then
		// examples/firemonitoring's hot-pixel count.
		{"noa chain as CREATE ARRAY AS SELECT", `CREATE ARRAY hotspot_mask AS
				SELECT a.y - 2 AS y, a.x - 1 AS x,
				       CASE WHEN a.v >= 310 AND a.v - b.v >= 8 THEN 1.0 ELSE 0.0 END AS v
				FROM frame_IR_039 a, frame_IR_108 b
				WHERE a.y = b.y AND a.x = b.x
				  AND a.y BETWEEN 2 AND 9 AND a.x BETWEEN 1 AND 8`, "affected=64"},
		{"hot-pixel count over the mask", `SELECT count(*) AS hot FROM hotspot_mask WHERE v = 1`, "hot:BIGINT\n55"},

		// Type errors are kernels: NULL over NULLs and no rows, the
		// interpreter's message on the first row with values.
		{"ill-typed operand over no rows", `SELECT sensor + 1 AS z FROM obs WHERE id > 10`, "z:DOUBLE"},
		{"ill-typed operand over NULL", `SELECT sensor + 1 AS z FROM obs WHERE id = 3`, "z:DOUBLE\nNULL"},
		{"ill-typed operand", `SELECT sensor + 1 AS z FROM obs`,
			`error: sciql: operator "+" not defined on string and int64`},
		{"ill-typed function argument", `SELECT lower(id) AS z FROM obs`, "error: sciql: lower expects a string"},
		{"NULL argument before the type check", `SELECT lower(NULL) AS z, abs() IS NULL AS w FROM t WHERE id = 9`, "z:DOUBLE|w:BOOLEAN"},
		{"CASE arms of other mixed kinds", `SELECT CASE WHEN id > 100 THEN 'big' ELSE id END AS c FROM obs`,
			"error: sciql: CASE arms mix VARCHAR and BIGINT"},
		{"... over no rows", `SELECT CASE WHEN id > 100 THEN 'big' ELSE id END AS c FROM e`, "c:DOUBLE"},
		{"aggregate over strings", `SELECT count(sensor) AS n FROM obs`,
			"error: sciql: count over non-numeric value string"},
		{"aggregate of an aggregate", `SELECT sum(count(*)) AS n FROM obs`, `error: sciql: unknown function "count"`},
		{"SET an array attribute from a string", `UPDATE img SET v = 'x'`,
			`error: sciql: cannot assign string to array attribute "v"`},
		{"... over no cells", `UPDATE img SET v = 'x' WHERE y = 5`, "affected=0"},
		{"a failing SET writes nothing", `UPDATE obs SET sensor = 'z', temp = 'hot' WHERE id = 2`,
			"error: sciql: cannot assign string to DOUBLE"},
		{"... so the first SET did not land", `SELECT sensor, temp FROM obs WHERE id = 2`,
			"sensor:VARCHAR|temp:DOUBLE\ns2|310.25"},

		// Errors in the interpreter's row order: row 1 fails in the second
		// item (or conjunct) before row 2 or 3 fails in the first.
		{"first failing row, across items", `SELECT 1 / (id - 2) AS a, sqrt(0 - id) AS b FROM obs`,
			"error: sciql: sqrt of negative value"},
		{"first failing row, across conjuncts", `SELECT id FROM obs WHERE 10 / (id - 3) < 0 AND lower(id) = 'x'`,
			"error: sciql: lower expects a string"},
		{"no conjunct runs on a row an earlier one dropped", `SELECT id FROM obs WHERE 10 / (id - 3) > 0 AND lower(id) = 'x'`,
			"error: sciql: division by zero"},
		{"first failing row within a group", `SELECT sum(CASE WHEN id = 4 THEN 1 / 0 ELSE sqrt(0 - id) END) AS s FROM obs WHERE sensor = 's1'`,
			"error: sciql: sqrt of negative value"},

		// Aggregates as columns over the group space.
		{"aggregates under CASE", `SELECT sensor, CASE WHEN count(*) > 1 THEN max(temp) ELSE 0 END AS m FROM obs GROUP BY sensor`,
			"sensor:VARCHAR|m:DOUBLE\ns1|290.5\ns2|0\nNULL|0"},
		{"FROM-less aggregate", `SELECT count(*) AS n, 1 + 1 AS two`, "n:BIGINT|two:BIGINT\n1|2"},
		{"global aggregate over no cells", `SELECT max(v) AS m, x FROM img WHERE y > 5`, "m:DOUBLE|x:BIGINT\nNULL|NULL"},

		// INSERT's VALUES: one row over no relation.
		{"INSERT expressions", `INSERT INTO ins VALUES (1 + 1, 2 * 1.5), (CASE WHEN true THEN 4 ELSE 0.5 END, NULL)`, "affected=2"},
		{"... inserted", `SELECT id, temp FROM ins`, "id:BIGINT|temp:DOUBLE\n2|3\n4|NULL"},
		{"INSERT reading a column", `INSERT INTO ins VALUES (id, 1.0)`, `error: sciql: column "id" referenced outside a query`},

		// A statement applies whole or not at all, a stored value is not
		// NULL, and DISTINCT compares typed values.
		{"INSERT with a row that does not fit appends no row", `INSERT INTO w VALUES (7, 8), (9, 'a')`,
			`error: column "y": column: cannot append string to BIGINT`},
		{"... so count(*) reads none", `SELECT count(*) AS n FROM w`, "n:BIGINT\n0"},
		{"... and no column grew", `SELECT x, y FROM w`, "x:BIGINT|y:BIGINT"},
		{"UPDATE over a NULL", `UPDATE nx SET x = 5 WHERE x IS NULL`, "affected=1"},
		{"... stores a value, not NULL", `SELECT x FROM nx`, "x:BIGINT\n5\n1"},
		// The first two rows render alike: 'a|','b' and 'a','|b'.
		{"DISTINCT over separators, NULL and '<nil>'", `SELECT DISTINCT a, b FROM dd`,
			"a:VARCHAR|b:VARCHAR\na||b\na||b\nNULL|x\n<nil>|x"},
	}
	for _, tc := range cases {
		if got := render(ref.oracleExec(tc.stmt)); got != tc.want {
			t.Errorf("%s: oracle\n%s\nwant\n%s", tc.name, got, tc.want)
		}
		if got := render(eng.Exec(tc.stmt)); got != tc.want {
			t.Errorf("%s: executor\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
