package stsparql

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql/corpus"
)

// The oracle-vs-vectorized equivalence suite: random BGP + FILTER +
// OPTIONAL + UNION + BIND queries, with random select tails, over a
// seeded store must return identical bindings, row order included, from
// the test-only binding-at-a-time reference evaluator (oracle_test.go)
// and the vectorized id-space executor, in every ablation mode.

// equivStore seeds a store with the shared corpus dataset; the query
// generator lives in internal/stsparql/corpus so the replication
// equivalence suite exercises the exact same workload.
func equivStore(rng *rand.Rand) *strabon.Store {
	st := strabon.NewStore()
	st.AddAll(corpus.Triples(rng, corpus.Subjects))
	return st
}

// orderedBindings renders bindings as canonical lines in RESULT ORDER
// (no sorting): the serial-vs-parallel suite demands bit-identical
// output, row order included.
func orderedBindings(res *Result) []string {
	out := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		var keys []string
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteString("=")
			sb.WriteString(b[k].String())
			sb.WriteString("|")
		}
		out = append(out, sb.String())
	}
	return out
}

// canonBindings renders bindings as sorted canonical lines.
func canonBindings(res *Result) []string {
	out := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		var keys []string
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteString("=")
			sb.WriteString(b[k].String())
			sb.WriteString("|")
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

// writeDelta applies one corpus.Delta batch to every store — adds, then
// removes, of base rows among others, with the first store folding over
// and over while they land — and then writeSide's duplicate
// inserts of base triples and base triples deleted and re-inserted in one
// statement, checking what each statement changed. It checks that the
// view each store then serves layers a delta on its last full build, so
// the queries that follow run against base and delta merged.
func writeDelta(t *testing.T, seed int64, stores ...*strabon.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := stores[0].Triples()
	adds, removes := corpus.Delta(rng, base)
	stmts := writeSide(rng, base, removes)
	for i, st := range stores {
		st.AddAll(adds)
		stop := func() {}
		if i == 0 {
			stop = foldWhile(st)
		}
		for _, tr := range removes {
			st.Remove(tr)
		}
		stop()
		for _, s := range stmts {
			if n, err := st.Apply(s.Dels, s.Ins); n != s.Changed || err != nil {
				t.Fatalf("statement %+v changed %d triples (%v), want %d", s, n, err, s.Changed)
			}
		}
		st.Snapshot()
		if st.ViewCounters().DeltaRows == 0 {
			t.Fatal("the writes folded: the view has no delta")
		}
	}
}

// foldWhile folds st over and over, with writes landing meanwhile, until
// the returned stop is called.
func foldWhile(st *strabon.Store) (stop func()) {
	done := make(chan struct{})
	var folding sync.WaitGroup
	folding.Add(1)
	go func() {
		defer folding.Done()
		for {
			select {
			case <-done:
				return
			default:
				st.Fold(0)
			}
		}
	}()
	return func() {
		close(done)
		folding.Wait()
	}
}

func TestExecutorEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(corpus.Seed))
	st := equivStore(rng)
	modes := []struct {
		name      string
		optimizer bool
		pushdown  bool
	}{
		{"default", true, true},
		{"no-optimizer", false, true},
		{"no-pushdown", true, false}, // A1 ablation: pushdown off
	}
	queries := corpus.Queries(rng, 400)
	for _, leg := range []string{"full build", "base+delta"} {
		if leg == "base+delta" {
			writeDelta(t, corpus.Seed+1, st)
		}
		for qi, query := range queries {
			for _, m := range modes {
				eng := New(st)
				eng.DisableOptimizer = !m.optimizer
				eng.DisableSpatialPushdown = !m.pushdown

				ores, oerr := eng.oracleQuery(context.Background(), query)
				vres, verr := eng.Query(query)
				if (oerr == nil) != (verr == nil) {
					t.Fatalf("%s, mode %s query #%d error mismatch:\noracle=%v\nvec=%v\nquery:\n%s",
						leg, m.name, qi, oerr, verr, query)
				}
				if oerr != nil {
					continue
				}
				oc, vc := orderedBindings(ores), orderedBindings(vres)
				if len(oc) != len(vc) {
					t.Fatalf("%s, mode %s query #%d row count: oracle=%d vec=%d\nquery:\n%s",
						leg, m.name, qi, len(oc), len(vc), query)
				}
				for i := range oc {
					if oc[i] != vc[i] {
						t.Fatalf("%s, mode %s query #%d row %d differs:\noracle: %s\nvec:    %s\nquery:\n%s",
							leg, m.name, qi, i, oc[i], vc[i], query)
					}
				}
			}
		}
	}
}

// forceTinyMorsels drops the morsel thresholds to 1 so the parallel
// machinery engages even on the small equivalence fixtures, restoring
// them (and GOMAXPROCS, raised so extra workers can actually spawn) on
// cleanup.
func forceTinyMorsels(t *testing.T) {
	t.Helper()
	prevJoin, prevFilter := morselMinJoinRows, morselMinFilterRows
	morselMinJoinRows, morselMinFilterRows = 1, 1
	prevProcs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() {
		morselMinJoinRows, morselMinFilterRows = prevJoin, prevFilter
		runtime.GOMAXPROCS(prevProcs)
	})
}

// TestSerialParallelEquivalence reruns the 400-query randomized corpus
// through the vectorized executor at morsel parallelism 1, 2, 4 and
// GOMAXPROCS and demands BIT-IDENTICAL results — same rows, same row
// order — at every level. Morsel thresholds are forced to 1 so every
// operator actually fans out.
func TestSerialParallelEquivalence(t *testing.T) {
	forceTinyMorsels(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	st := equivStore(rng)
	queries := corpus.Queries(rng, 400)
	levels := []int{2, 4, runtime.GOMAXPROCS(0)}
	serial := New(st)
	serial.MaxParallelism = 1
	for qi, query := range queries {
		sres, serr := serial.Query(query)
		var want []string
		if serr == nil {
			want = orderedBindings(sres)
		}
		for _, workers := range levels {
			par := New(st)
			par.MaxParallelism = workers
			pres, perr := par.Query(query)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("workers=%d query #%d error mismatch:\nserial=%v\nparallel=%v\nquery:\n%s",
					workers, qi, serr, perr, query)
			}
			if serr != nil {
				continue
			}
			got := orderedBindings(pres)
			if len(got) != len(want) {
				t.Fatalf("workers=%d query #%d row count: serial=%d parallel=%d\nquery:\n%s",
					workers, qi, len(want), len(got), query)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("workers=%d query #%d row %d differs (order matters):\nserial:   %s\nparallel: %s\nquery:\n%s",
						workers, qi, i, want[i], got[i], query)
				}
			}
		}
	}
}

// TestSpatialJoinOrderMatchesNoPushdown: on queries whose only spatial
// filter relates two variables there is no hint to plan with, so
// turning spatial pushdown off changes nothing but the join between the
// two variables' groups — and must change no row and no row order, at
// every parallelism level, over a full build and over base + delta.
func TestSpatialJoinOrderMatchesNoPushdown(t *testing.T) {
	forceTinyMorsels(t)
	rng := rand.New(rand.NewSource(corpus.Seed))
	st := equivStore(rng)
	queries := make([]string, 200)
	for i := range queries {
		queries[i] = corpus.SpatialJoinQuery(rng)
	}
	nonEmpty, answers := 0, 0
	for _, leg := range []string{"full build", "base+delta"} {
		if leg == "base+delta" {
			writeDelta(t, corpus.Seed+1, st)
		}
		for _, workers := range []int{1, 4} {
			on, off := New(st), New(st)
			on.MaxParallelism, off.MaxParallelism = workers, workers
			off.DisableSpatialPushdown = true
			for qi, query := range queries {
				want, err := off.Query(query)
				if err != nil {
					t.Fatalf("%s, query #%d: %v\n%s", leg, qi, err, query)
				}
				res, err := on.Query(query)
				if err != nil {
					t.Fatalf("%s, query #%d: %v\n%s", leg, qi, err, query)
				}
				w, g := orderedBindings(want), orderedBindings(res)
				if strings.Join(w, "\n") != strings.Join(g, "\n") {
					t.Fatalf("%s, workers=%d query #%d: pushdown on returned\n%s\nwant (pushdown off)\n%s\nquery:\n%s",
						leg, workers, qi, strings.Join(g, "\n"), strings.Join(w, "\n"), query)
				}
				answers++
				if len(w) > 0 {
					nonEmpty++
				}
			}
		}
	}
	// About three answers in ten keep a row; fewer than one in four means
	// the corpus no longer exercises the join.
	if 4*nonEmpty < answers {
		t.Fatalf("only %d of %d answers were non-empty, want at least a quarter", nonEmpty, answers)
	}
}

// TestContextCancellationStopsEvaluation: a pre-cancelled context must
// surface as an error, not as an empty result.
func TestContextCancellationStopsEvaluation(t *testing.T) {
	st := equivStore(rand.New(rand.NewSource(99)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	query := `SELECT * WHERE { ?s ?p ?o . ?s <http://ex/p2> ?x }`
	if _, err := New(st).QueryContext(ctx, query); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestExecutorEquivalenceAggregates covers GROUP BY / aggregate queries
// over a second seed of the dataset.
func TestExecutorEquivalenceAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := equivStore(rng)
	queries := []string{
		`SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?t (COUNT(*) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY ?t`,
		`SELECT ?t (AVG(?v) AS ?m) (MAX(?v) AS ?hi) WHERE { ?s a ?t . ?s <http://ex/p0> ?v } GROUP BY ?t ORDER BY ?t`,
		`ASK { ?s a <http://ex/Town> }`,
		`ASK { ?s a <http://ex/Nothing> }`,
	}
	for _, query := range queries {
		eng := New(st)
		ores := eng.mustOracleQuery(query)
		vres := eng.MustQuery(query)
		if ores.Bool != vres.Bool {
			t.Fatalf("ASK mismatch for %s: oracle=%v vec=%v", query, ores.Bool, vres.Bool)
		}
		oc, vc := canonBindings(ores), canonBindings(vres)
		if strings.Join(oc, "\n") != strings.Join(vc, "\n") {
			t.Fatalf("aggregate mismatch for %s:\noracle=%v\nvec=%v", query, oc, vc)
		}
	}
}

// TestExecutorEquivalenceUpdates runs a DELETE/INSERT WHERE through the
// oracle and the executor on separate but identical stores.
func TestExecutorEquivalenceUpdates(t *testing.T) {
	mkStore := func() *strabon.Store {
		return equivStore(rand.New(rand.NewSource(7)))
	}
	update := `PREFIX ex: <http://ex/>
		DELETE { ?s a ex:Town } INSERT { ?s a ex:City } WHERE { ?s a ex:Town }`
	check := `SELECT ?s WHERE { ?s a <http://ex/City> } ORDER BY ?s`

	oracle := New(mkStore())
	vec := New(mkStore())

	ou := oracle.mustOracleQuery(update)
	vu := vec.MustQuery(update)
	if ou.Affected != vu.Affected {
		t.Fatalf("affected mismatch: oracle=%d vec=%d", ou.Affected, vu.Affected)
	}
	oc := canonBindings(oracle.mustOracleQuery(check))
	vc := canonBindings(vec.MustQuery(check))
	if strings.Join(oc, "\n") != strings.Join(vc, "\n") {
		t.Fatalf("post-update state mismatch:\noracle=%v\nvec=%v", oc, vc)
	}
}

// statement is one store statement — its deletions, then its
// insertions — and the number of triples applying it must change.
type statement struct {
	Dels, Ins []rdf.Triple
	Changed   int
}

// writeSide draws statements aimed at a store's write side over its
// base, for a store holding base minus removes: one inserting twenty
// base triples (some twice), which must change nothing, and ten that
// each delete a base triple and re-insert it in the same statement,
// which must change two.
func writeSide(rng *rand.Rand, base, removes []rdf.Triple) []statement {
	gone := make(map[rdf.Triple]bool, len(removes))
	for _, t := range removes {
		gone[t] = true
	}
	live := func() rdf.Triple {
		for {
			if t := base[rng.Intn(len(base))]; !gone[t] {
				return t
			}
		}
	}
	dups := statement{}
	for len(dups.Ins) < 20 {
		dups.Ins = append(dups.Ins, live())
	}
	out := []statement{dups}
	for len(out) < 11 {
		t := live()
		gone[t] = true // once each
		out = append(out, statement{Dels: []rdf.Triple{t}, Ins: []rdf.Triple{t}, Changed: 2})
	}
	return out
}

// TestHashJoinEquivalence checks joins large enough to take the hash-join
// path — more than 4,096 input × candidate pairs, which the canonical
// 20-subject corpus never reaches — against the oracle row for row: a
// probe must emit each bucket's candidates in ascending order, as the
// oracle's scan of the store's triples does. The shapes join on one
// variable, on two (the [3]uint64 key) and on a class shared by a third
// of the subjects, serially and with morsels forced to fan out.
func TestHashJoinEquivalence(t *testing.T) {
	forceTinyMorsels(t)
	st := strabon.NewStore()
	st.AddAll(corpus.Triples(rand.New(rand.NewSource(corpus.Seed)), 300))
	queries := []string{
		`SELECT * WHERE { ?a a ?t . ?a <http://ex/p0> ?v }`,
		`SELECT * WHERE { ?a <http://ex/p2> ?b . ?b <http://ex/p1> ?n }`,
		`SELECT * WHERE { ?a <http://ex/p2> ?b . ?b <http://ex/p2> ?c }`,
		`SELECT * WHERE { ?a <http://ex/p2> ?b . ?b <http://ex/p2> ?a }`,
		`SELECT ?a ?b WHERE { ?a <http://ex/p0> ?v . ?b <http://ex/p0> ?v . ?a a ?t . ?b a ?t } ORDER BY DESC(?v) LIMIT 50`,
		`SELECT ?t (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE { ?a a ?t . ?a <http://ex/p0> ?v . ?a <http://ex/p2> ?b } GROUP BY ?t`,
		`SELECT DISTINCT ?v WHERE { ?a a <http://ex/Town> . ?a <http://ex/p0> ?v . ?a <http://ex/p2> ?b } ORDER BY ?v`,
	}
	for _, leg := range []string{"full build", "base+delta"} {
		if leg == "base+delta" {
			writeDelta(t, corpus.Seed+1, st)
		}
		for _, workers := range []int{1, 4} {
			eng := New(st)
			eng.MaxParallelism = workers
			for qi, query := range queries {
				want, err := eng.oracleQuery(context.Background(), query)
				if err != nil {
					t.Fatalf("query #%d: %v", qi, err)
				}
				got, err := eng.Query(query)
				if err != nil {
					t.Fatalf("query #%d: %v", qi, err)
				}
				w, g := orderedBindings(want), orderedBindings(got)
				if len(w) == 0 {
					t.Fatalf("query #%d returned no row", qi)
				}
				if strings.Join(w, "\n") != strings.Join(g, "\n") {
					t.Fatalf("%s, workers=%d query #%d: executor rows differ from the oracle's (order matters)\nquery:\n%s",
						leg, workers, qi, query)
				}
			}
		}
	}
}
