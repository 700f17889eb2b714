package sciql

import (
	"fmt"
	"testing"
)

func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	e := NewEngine()
	e.MustExec(`CREATE TABLE obs (id BIGINT, sensor VARCHAR, temp DOUBLE)`)
	tbl, err := e.Table("obs")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(int64(i), fmt.Sprintf("s%d", i%4), 280+float64(i%60)); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func BenchmarkParse(b *testing.B) {
	const q = `SELECT sensor, count(*) AS n, avg(temp) AS m FROM obs WHERE temp BETWEEN 300 AND 320 GROUP BY sensor ORDER BY n DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectFilter(b *testing.B) {
	e := benchEngine(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.MustExec(`SELECT id FROM obs WHERE temp > 330`)
		if res.Table.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkGroupByAggregate(b *testing.B) {
	e := benchEngine(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.MustExec(`SELECT sensor, avg(temp) AS m FROM obs GROUP BY sensor`)
		if res.Table.NumRows() != 4 {
			b.Fatal("groups")
		}
	}
}

func BenchmarkArrayUpdateClassify(b *testing.B) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY a (y INT DIMENSION [256], x INT DIMENSION [256], v DOUBLE)`)
	e.MustExec(`UPDATE a SET v = y + x`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.MustExec(`UPDATE a SET v = CASE WHEN v > 255 THEN 1 ELSE 0 END`)
		if res.Affected != 256*256 {
			b.Fatal("affected")
		}
	}
}

func BenchmarkAlignedArrayJoin(b *testing.B) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY p (y INT DIMENSION [128], x INT DIMENSION [128], v DOUBLE)`)
	e.MustExec(`CREATE ARRAY q (y INT DIMENSION [128], x INT DIMENSION [128], v DOUBLE)`)
	e.MustExec(`UPDATE p SET v = y`)
	e.MustExec(`UPDATE q SET v = x`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.MustExec(`SELECT count(*) AS n FROM p, q WHERE p.y = q.y AND p.x = q.x AND p.v > q.v`)
		if res.Table.Col("n").Int(0) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkDimensionPushdownCrop measures the demo's crop idiom: the
// dimension-range WHERE becomes a subarray enumeration instead of a full
// scan plus post-filter.
func BenchmarkDimensionPushdownCrop(b *testing.B) {
	e := NewEngine()
	e.MustExec(`CREATE ARRAY img (y INT DIMENSION [512], x INT DIMENSION [512], v DOUBLE)`)
	e.MustExec(`UPDATE img SET v = y + x`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.MustExec(`SELECT count(*) AS n, max(v) AS m FROM img WHERE y BETWEEN 100 AND 131 AND x BETWEEN 200 AND 263`)
		if res.Table.Col("n").Int(0) != 32*64 {
			b.Fatal("crop count")
		}
	}
}

// A6 — ablation: the columnar kernel executor versus the legacy
// tuple-at-a-time interpreter on the three hot SciQL shapes.
func BenchmarkAblationSciQLExecutor(b *testing.B) {
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"vectorized", false}, {"legacy", true}} {
		b.Run("filter/"+mode.name, func(b *testing.B) {
			e := benchEngine(b, 100000)
			e.forceInterpreter = mode.legacy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.MustExec(`SELECT id FROM obs WHERE temp > 330`); res.Table.NumRows() == 0 {
					b.Fatal("no rows")
				}
			}
		})
		b.Run("update/"+mode.name, func(b *testing.B) {
			e := NewEngine()
			e.forceInterpreter = mode.legacy
			e.MustExec(`CREATE ARRAY a (y INT DIMENSION [256], x INT DIMENSION [256], v DOUBLE)`)
			e.MustExec(`UPDATE a SET v = y + x`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := e.MustExec(`UPDATE a SET v = CASE WHEN v > 255 THEN 1 ELSE 0 END`); res.Affected != 256*256 {
					b.Fatal("affected")
				}
			}
		})
		b.Run("zipjoin/"+mode.name, func(b *testing.B) {
			e := NewEngine()
			e.forceInterpreter = mode.legacy
			e.MustExec(`CREATE ARRAY p (y INT DIMENSION [128], x INT DIMENSION [128], v DOUBLE)`)
			e.MustExec(`CREATE ARRAY q (y INT DIMENSION [128], x INT DIMENSION [128], v DOUBLE)`)
			e.MustExec(`UPDATE p SET v = y`)
			e.MustExec(`UPDATE q SET v = x`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := e.MustExec(`SELECT count(*) AS n FROM p, q WHERE p.y = q.y AND p.x = q.x AND p.v > q.v`)
				if res.Table.Col("n").Int(0) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}
