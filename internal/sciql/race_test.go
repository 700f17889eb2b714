package sciql

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/column"
)

// TestConcurrentQueryVsIngest drives concurrent SELECTs against the
// engine while an ingest goroutine registers new arrays and tables, with
// parallel tile kernels churning the shared worker pool the whole time.
// Run under -race this pins the locking contract: catalog mutation is
// guarded by the engine lock, queries only touch already-registered
// objects, and the worker pool is safe to share across goroutines.
func TestConcurrentQueryVsIngest(t *testing.T) {
	eng := NewEngine()
	eng.MustExec(`CREATE ARRAY base (y INT DIMENSION [64], x INT DIMENSION [64], v DOUBLE)`)
	eng.MustExec(`UPDATE base SET v = y * 64 + x`)
	eng.MustExec(`CREATE TABLE obs (id BIGINT, temp DOUBLE)`)
	tbl, err := eng.Table("obs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.AppendRow(int64(i), 280+float64(i%50)); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 30
	var wg sync.WaitGroup

	// Ingest: register fresh arrays and immediately update them (each
	// goroutine owns the arrays it writes; the catalog map itself is the
	// shared state under test).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			name := fmt.Sprintf("ing%d", i)
			img := array.MustNew("v", array.Dim{Name: "y", Size: 48}, array.Dim{Name: "x", Size: 48})
			if err := eng.RegisterArray(name, img.Dims, map[string]*array.Array{"v": img}); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.Exec(fmt.Sprintf(`UPDATE %s SET v = y + x WHERE x < 32`, name)); err != nil {
				t.Error(err)
				return
			}
			eng.RegisterTable(column.NewTable(fmt.Sprintf("t%d", i), column.Field{Name: "k", Typ: column.Int64}))
		}
	}()

	// Queries: read only the pre-registered objects.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := eng.Exec(`SELECT count(*) AS n, max(v) AS m FROM base WHERE v > 100 AND y BETWEEN 1 AND 62`)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Table.Col("n").Int(0) == 0 {
					t.Error("no rows")
					return
				}
				if _, err := eng.Exec(`SELECT id FROM obs WHERE temp > 300 LIMIT 5`); err != nil {
					t.Error(err)
					return
				}
			}
		}(q)
	}

	// Kernel churn: parallel array kernels on private arrays share the
	// worker pool with the query/ingest goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		img := array.MustNew("k", array.Dim{Name: "y", Size: 256}, array.Dim{Name: "x", Size: 256})
		for i := range img.Data {
			img.Data[i] = float64(i % 97)
		}
		for i := 0; i < rounds/3; i++ {
			mask, err := array.Combine(img, img, func(v, _ float64) float64 {
				if v >= 90 {
					return 1
				}
				return 0
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := mask.ConnectedComponents(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
}
