package persist

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/stsparql"
)

// The recovery equivalence suite: a store is mutated through the
// journal (adds, removes, batch updates, with folds and a mid-stream
// checkpoint between them), the process "dies" (the Manager is abandoned without
// Close, exactly what SIGKILL leaves on disk), and recovery must yield a
// store that answers 400 randomized stSPARQL queries identically to the
// survivor.

func equivTerm(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("%ss%d", exNS, i)) }

func equivTriples(rng *rand.Rand, n int) []rdf.Triple {
	classes := []string{"Hotspot", "Town", "Forest"}
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		s := equivTerm(i)
		out = append(out, rdf.NewTriple(s, rdf.IRI(rdf.RDFType), rdf.IRI(exNS+classes[i%3])))
		if rng.Intn(4) != 0 {
			out = append(out, rdf.NewTriple(s, rdf.IRI(exNS+"p0"), rdf.IntegerLiteral(int64(rng.Intn(10)))))
		}
		if rng.Intn(3) != 0 {
			out = append(out, rdf.NewTriple(s, rdf.IRI(exNS+"p1"), rdf.Literal(fmt.Sprintf("name-%d", rng.Intn(6)))))
		}
		if rng.Intn(3) != 0 {
			wkt := fmt.Sprintf("POINT (%.4f %.4f)", 23.0+rng.Float64()*2, 37.0+rng.Float64()*2)
			out = append(out, rdf.NewTriple(s, rdf.IRI(exNS+"geom"), rdf.TypedLiteral(wkt, rdf.StRDFWKT)))
		}
		for k := 0; k < rng.Intn(3); k++ {
			out = append(out, rdf.NewTriple(s, rdf.IRI(exNS+"p2"), equivTerm(rng.Intn(n))))
		}
	}
	return out
}

func equivQuery(rng *rand.Rand) string {
	vars := []string{"a", "b", "c"}
	preds := []string{"a", "<" + exNS + "p0>", "<" + exNS + "p1>", "<" + exNS + "p2>", "<" + exNS + "geom>"}
	objs := []string{"<" + exNS + "Hotspot>", "<" + exNS + "Town>", "<" + exNS + "s3>", `"name-2"`, "4"}
	pat := func() string {
		s := "?" + vars[rng.Intn(len(vars))]
		if rng.Intn(3) == 0 {
			s = fmt.Sprintf("<%ss%d>", exNS, rng.Intn(20))
		}
		o := "?" + vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			o = objs[rng.Intn(len(objs))]
		}
		return fmt.Sprintf("%s %s %s .", s, preds[rng.Intn(len(preds))], o)
	}
	var body []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		body = append(body, pat())
	}
	switch rng.Intn(5) {
	case 0:
		body = append(body, fmt.Sprintf("FILTER(?%s > %d)", vars[rng.Intn(2)], rng.Intn(8)))
	case 1:
		body = append(body, fmt.Sprintf(
			`FILTER(strdf:intersects(?%s, "POLYGON ((23 37, 24.5 37, 24.5 38.5, 23 38.5, 23 37))"^^strdf:WKT))`,
			vars[rng.Intn(2)]))
	}
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("OPTIONAL { %s }", pat()))
	}
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("{ %s } UNION { %s }", pat(), pat()))
	}
	return fmt.Sprintf(`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT * WHERE { %s }`, strings.Join(body, "\n"))
}

func canonResult(t *testing.T, res *stsparql.Result) []string {
	t.Helper()
	out := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s|", k, b[k].String())
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func TestRecoveryQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })

	// Sustained updates: batches, single adds, removes, a fold,
	// and a checkpoint landing in the middle of the stream.
	triples := equivTriples(rng, 20)
	st.AddAll(triples[:len(triples)/2])
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.AddAll(triples[len(triples)/2:])
	for i := 0; i < 10; i++ {
		st.Remove(triples[rng.Intn(len(triples))])
	}
	st.Fold(st.AppliedSeq())
	st.AddAll(equivTriples(rng, 5))

	// SIGKILL: walk away without Close. SyncNone means the bytes are in
	// the page cache, which survives process death — the durability
	// contract under test.
	_ = m

	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)

	live := stsparql.New(st)
	replayed := stsparql.New(recovered)
	const nQueries = 400
	mismatches := 0
	for qi := 0; qi < nQueries; qi++ {
		q := equivQuery(rng)
		lres, lerr := live.Query(q)
		rres, rerr := replayed.Query(q)
		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("query %d error divergence: live=%v recovered=%v\n%s", qi, lerr, rerr, q)
		}
		if lerr != nil {
			continue
		}
		l, r := canonResult(t, lres), canonResult(t, rres)
		if len(l) != len(r) {
			t.Errorf("query %d: %d vs %d rows\n%s", qi, len(l), len(r), q)
			mismatches++
			continue
		}
		for i := range l {
			if l[i] != r[i] {
				t.Errorf("query %d row %d:\nlive      %s\nrecovered %s\n%s", qi, i, l[i], r[i], q)
				mismatches++
				break
			}
		}
		if mismatches > 3 {
			t.Fatal("too many mismatches, aborting")
		}
	}
}

// TestConcurrentQueriesUpdatesCheckpoint drives reads, journalled
// writes, and checkpoints concurrently; run under -race it checks the
// locking seams between the store, the WAL, and the checkpointer.
func TestConcurrentQueriesUpdatesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncInterval; o.SyncEvery = time.Millisecond })
	defer m.Close()
	rng := rand.New(rand.NewSource(7))
	st.AddAll(equivTriples(rng, 10))
	eng := stsparql.New(st)

	const writers, readers, rounds = 2, 3, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tri := tr(fmt.Sprintf("w%d-%d", w, i), "p", "o")
				st.Add(tri)
				if i%3 == 0 {
					st.Remove(tri)
				}
				if i%17 == 0 {
					st.Fold(st.AppliedSeq())
				}
				if i%11 == 0 {
					st.AddAll([]rdf.Triple{
						tr(fmt.Sprintf("w%d-b%d", w, i), "p", "o1"),
						tr(fmt.Sprintf("w%d-b%d", w, i), "p", "o2"),
					})
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := eng.Query(`SELECT * WHERE { ?s <` + exNS + `p> ?o }`); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := m.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := st.JournalErr(); err != nil {
		t.Fatalf("journal error: %v", err)
	}

	// Everything journalled must be recoverable.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}
