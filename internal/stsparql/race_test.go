package stsparql

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/strabon"
)

// TestConcurrentQueriesAndUpdates exercises the snapshot API under `go
// test -race`: readers evaluate queries (each against an immutable
// snapshot) while writers add, remove and fold concurrently. Queries
// must never observe torn state (panic / error); counts may legitimately
// vary between snapshots.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	st := strabon.NewStore()
	for i := 0; i < 50; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI(rdf.RDFType),
			rdf.IRI("http://ex/Thing")))
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/geom"),
			rdf.TypedLiteral(fmt.Sprintf("POINT (23.%02d 37.%02d)", i%100, i%100),
				"http://strdf.di.uoa.gr/ontology#WKT")))
	}
	eng := New(st)
	queries := []string{
		`SELECT ?s WHERE { ?s a <http://ex/Thing> }`,
		`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		 SELECT ?s ?g WHERE {
			?s <http://ex/geom> ?g .
			FILTER(strdf:intersects(?g, "POLYGON ((23 37, 24 37, 24 38, 23 38, 23 37))"^^strdf:WKT))
		 }`,
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`ASK { ?s a <http://ex/Thing> }`,
	}
	const iters = 150
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Query(queries[(w+i)%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr := rdf.NewTriple(
					rdf.IRI(fmt.Sprintf("http://ex/w%d-%d", w, i)),
					rdf.IRI(rdf.RDFType),
					rdf.IRI("http://ex/Thing"))
				st.Add(tr)
				if i%3 == 0 {
					st.Remove(tr)
				}
				if i%25 == 0 {
					st.Fold(st.AppliedSeq())
				}
			}
		}(w)
	}
	wg.Wait()
	// Final state must still answer deterministically.
	res := eng.MustQuery(`SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://ex/Thing> }`)
	if len(res.Bindings) != 1 {
		t.Fatalf("final count query returned %d rows", len(res.Bindings))
	}
}

// TestModifyIsAtomicInProcess: a DELETE/INSERT … WHERE run through
// Engine.Query is one Store.Update, atomic and serialisable with no
// server in front. Eight writers rewrite a one-value register while four
// readers count its values: every count is exactly 1 (a reader between a
// modify's deletion and its insertion would see 0, one between two
// interleaved modifies 2), and exactly one value remains at the end.
func TestModifyIsAtomicInProcess(t *testing.T) {
	eng := New(strabon.NewStore())
	eng.MustQuery(`INSERT DATA { <http://ex/reg> <http://ex/val> "v0" }`)
	const count = `SELECT (COUNT(*) AS ?n) WHERE { <http://ex/reg> <http://ex/val> ?v }`
	registerValues := func() (string, error) {
		res, err := eng.Query(count)
		if err != nil {
			return "", err
		}
		if len(res.Bindings) != 1 {
			return "", fmt.Errorf("count returned %d rows", len(res.Bindings))
		}
		return res.Bindings[0]["n"].Value, nil
	}

	const writers, readers, rounds = 8, 4, 40
	var writing sync.WaitGroup
	for w := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := range rounds {
				up := fmt.Sprintf(`DELETE { <http://ex/reg> <http://ex/val> ?old }
					INSERT { <http://ex/reg> <http://ex/val> "v%d-%d" }
					WHERE { <http://ex/reg> <http://ex/val> ?old }`, w, i)
				if _, err := eng.Query(up); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var reading sync.WaitGroup
	for r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n, err := registerValues()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if n != "1" {
					t.Errorf("reader %d saw %s register values, want exactly 1", r, n)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if n, err := registerValues(); err != nil || n != "1" {
		t.Fatalf("register holds %s values after the writers (err %v), want exactly 1", n, err)
	}
}

// TestConcurrentParallelQueriesUpdatesCheckpoints exercises the SHARED
// slot-budget pool under -race: morsel-parallel multi-pattern queries
// (thresholds forced to 1 so every operator fans out), journalled
// writes, and background WAL checkpoints all running at once against a
// durable store. GOMAXPROCS is raised so extra workers really spawn.
func TestConcurrentParallelQueriesUpdatesCheckpoints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	prevJoin, prevFilter := morselMinJoinRows, morselMinFilterRows
	morselMinJoinRows, morselMinFilterRows = 1, 1
	defer func() { morselMinJoinRows, morselMinFilterRows = prevJoin, prevFilter }()

	mgr, st, err := persist.Open(persist.Options{Dir: t.TempDir(), SyncMode: persist.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for i := 0; i < 80; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI(rdf.RDFType),
			rdf.IRI("http://ex/Thing")))
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/geom"),
			rdf.TypedLiteral(fmt.Sprintf("POINT (23.%02d 37.%02d)", i%100, i%100),
				"http://strdf.di.uoa.gr/ontology#WKT")))
	}
	eng := New(st)
	eng.MaxParallelism = 4
	queries := []string{
		`SELECT ?s ?g WHERE { ?s a <http://ex/Thing> . ?s <http://ex/geom> ?g }`,
		`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		 SELECT ?s WHERE {
			?s a <http://ex/Thing> .
			?s <http://ex/geom> ?g .
			FILTER(strdf:intersects(?g, "POLYGON ((23 37, 24 37, 24 38, 23 38, 23 37))"^^strdf:WKT))
		 }`,
		`EXPLAIN SELECT ?s ?g WHERE { ?s a <http://ex/Thing> . ?s <http://ex/geom> ?g }`,
		`ASK { ?s a <http://ex/Thing> }`,
	}
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Query(queries[(w+i)%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			tr := rdf.NewTriple(
				rdf.IRI(fmt.Sprintf("http://ex/w%d", i)),
				rdf.IRI(rdf.RDFType),
				rdf.IRI("http://ex/Thing"))
			st.Add(tr)
			if i%3 == 0 {
				st.Remove(tr)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := mgr.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := st.JournalErr(); err != nil {
		t.Fatalf("journal error after run: %v", err)
	}
}
