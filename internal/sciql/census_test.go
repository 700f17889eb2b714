package sciql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The fallback census. The columnar executor hands any statement its
// compiler rejects back to the interpreter (eval.go) whole, which is why
// the interpreter cannot be deleted yet. This test pins exactly which
// statement shapes still take that road — over the randomized
// equivalence corpus, the statements examples/ and internal/noa issue,
// and a table of hand-written shapes — so that a change which introduces
// a new fallback fails here, and a change which closes a gap has to
// shrink the pinned list. When the list is empty, eval.go can go.

// probeFallback runs one statement the way ExecStmt would, but observes
// the vectorized entry point directly: it returns the entry point that
// refused the statement ("" when the columnar executor handled it, or
// when the statement never reaches one). Catalog state advances exactly
// as in production: a refused mutation is applied by the interpreter.
func probeFallback(e *Engine, src string) (entry string, res *Result, err error) {
	st, err := Parse(src)
	if err != nil {
		return "", nil, err
	}
	handled := true
	switch s := st.(type) {
	case *SelectStmt:
		_, handled, _ = e.vexecSelect(s)
		entry = "vexecSelect"
	case *CreateArrayStmt:
		if s.AsSelect != nil {
			_, handled, _ = e.vexecSelect(s.AsSelect)
			entry = "vexecSelect"
		}
	case *UpdateStmt:
		if res, handled, err = e.vexecUpdate(s); handled {
			return "", res, err
		}
		entry = "vexecUpdate"
	case *DeleteStmt:
		if res, handled, err = e.vexecDelete(s); handled {
			return "", res, err
		}
		entry = "vexecDelete"
	}
	if handled {
		entry = ""
	}
	res, err = e.ExecStmt(st)
	return entry, res, err
}

// corpusShape names the shape of a corpus statement that fell back. The
// randomized generator has one construct the compiler rejects; anything
// else is reported verbatim so it cannot hide inside a count.
func corpusShape(stmt string) string {
	if strings.Contains(stmt, "CASE WHEN") {
		return "CASE whose arms mix BIGINT and DOUBLE kinds"
	}
	return "unclassified: " + stmt
}

func TestVectorizedFallbackCensus(t *testing.T) {
	t.Run("named shapes", func(t *testing.T) {
		interp, vec := equivPair(t, rand.New(rand.NewSource(11)))
		for _, e := range []*Engine{interp, vec} {
			// The catalog internal/noa's RunSciQL builds (ingest.RegisterFrame
			// names band arrays <prefix>_<band>).
			e.MustExec(`CREATE ARRAY frame_IR_039 (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`)
			e.MustExec(`CREATE ARRAY frame_IR_108 (y INT DIMENSION [12], x INT DIMENSION [10], v DOUBLE)`)
			e.MustExec(`UPDATE frame_IR_039 SET v = 300 + y * 2 + x`)
			e.MustExec(`UPDATE frame_IR_108 SET v = 295 + x`)
		}
		cases := []struct {
			name, stmt string
			// entry is the vectorized entry point that must refuse the
			// statement; "" means the columnar executor must handle it.
			entry string
		}{
			{"no FROM clause", `SELECT 1 + 1 AS two`, "vexecSelect"},
			{"aggregate inside arithmetic", `SELECT count(*) + 1 AS n FROM obs`, "vexecSelect"},
			{"arithmetic over two aggregates", `SELECT max(v) - min(v) AS spread FROM img`, "vexecSelect"},
			{"CASE with BIGINT and DOUBLE arms", `SELECT CASE WHEN temp > 300 THEN id ELSE temp END AS c FROM obs`, "vexecSelect"},
			{"cross product without an equi-join", `SELECT id, k FROM obs, sites WHERE id < k LIMIT 5`, "vexecSelect"},
			{"three-way join", `SELECT obs.id FROM obs, sites, sites s2 WHERE obs.id = sites.k AND sites.k = s2.k LIMIT 5`, "vexecSelect"},
			{"SET a VARCHAR column from a number", `UPDATE obs SET sensor = 5 WHERE id = 1`, "vexecUpdate"},
			// Statements that are errors either way: the interpreter words
			// the message.
			{"unknown column", `SELECT id FROM obs WHERE ghost > 1`, "vexecSelect"},
			{"unknown UPDATE target", `UPDATE ghost SET v = 1`, "vexecUpdate"},
			{"DELETE from an array", `DELETE FROM img WHERE v > 3`, "vexecDelete"},
			{"DELETE with an unknown column", `DELETE FROM sites WHERE ghost = 1`, "vexecDelete"},
			// Shapes the columnar executor handles.
			{"string concatenation over a column", `SELECT 'a' || 'b' || sensor AS s FROM obs LIMIT 3`, ""},
			// internal/noa Chain.RunSciQL: crop by dimension predicates,
			// aligned array join, CASE classification.
			{"noa chain as CREATE ARRAY AS SELECT", `CREATE ARRAY hotspot_mask AS
				SELECT a.y - 2 AS y, a.x - 1 AS x,
				       CASE WHEN a.v >= 310 AND a.v - b.v >= 8 THEN 1.0 ELSE 0.0 END AS v
				FROM frame_IR_039 a, frame_IR_108 b
				WHERE a.y = b.y AND a.x = b.x
				  AND a.y BETWEEN 2 AND 9 AND a.x BETWEEN 1 AND 8`, ""},
			// examples/firemonitoring.
			{"hot-pixel count over the mask", `SELECT count(*) AS hot FROM hotspot_mask WHERE v = 1`, ""},
		}
		for _, tc := range cases {
			entry, vres, verr := probeFallback(vec, tc.stmt)
			switch {
			case entry == tc.entry:
			case tc.entry == "":
				t.Errorf("%s: new fallback at %s (the columnar executor used to handle this)\n%s", tc.name, entry, tc.stmt)
			case entry == "":
				t.Errorf("%s: gap closed — %s no longer refuses this; move the row to the handled shapes\n%s", tc.name, tc.entry, tc.stmt)
			default:
				t.Errorf("%s: refused by %s, pinned at %s\n%s", tc.name, entry, tc.entry, tc.stmt)
			}
			ires, ierr := interp.Exec(tc.stmt)
			if (ierr == nil) != (verr == nil) {
				t.Fatalf("%s: error mismatch: interpreter=%v default=%v", tc.name, ierr, verr)
			}
			if ierr != nil {
				continue
			}
			ic, vc := canonTable(ires.Table), canonTable(vres.Table)
			if ires.Affected != vres.Affected || strings.Join(ic, "\n") != strings.Join(vc, "\n") {
				t.Fatalf("%s diverged:\ninterpreter=%v\ndefault=%v", tc.name, ic, vc)
			}
		}
	})

	t.Run("equivalence corpus", func(t *testing.T) {
		got := map[string]int{}
		for _, workers := range []int{1, 2, 0} {
			rng := rand.New(rand.NewSource(equivSeed + int64(workers)))
			e := NewEngine()
			for _, st := range equivSetup(rng) {
				e.MustExec(st)
			}
			g := &equivGen{rng: rng}
			for i := 0; i < equivStatements; i++ {
				stmt, _ := g.next()
				if entry, _, _ := probeFallback(e, stmt); entry != "" {
					got[entry+": "+corpusShape(stmt)]++
				}
			}
		}
		// 31 of the 780 corpus statements, all one shape: vcompiler's CASE
		// kernel needs every arm to have the same kind.
		want := map[string]int{
			"vexecSelect: CASE whose arms mix BIGINT and DOUBLE kinds": 23,
			"vexecUpdate: CASE whose arms mix BIGINT and DOUBLE kinds": 8,
		}
		var diff []string
		for k, n := range got {
			if want[k] != n {
				diff = append(diff, fmt.Sprintf("%s: %d statements fall back, %d pinned", k, n, want[k]))
			}
		}
		for k, n := range want {
			if _, ok := got[k]; !ok {
				diff = append(diff, fmt.Sprintf("%s: gap closed (%d pinned, none fall back) — delete the row", k, n))
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			t.Fatalf("corpus fallback census changed:\n%s", strings.Join(diff, "\n"))
		}
	})
}
