package stsparql

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/strabon"
	"repro/internal/stsparql/corpus"
)

// The oracle-vs-vectorized equivalence suite: random BGP + FILTER +
// OPTIONAL + UNION + BIND queries over a seeded store must return
// identical sorted bindings from the test-only binding-at-a-time reference
// evaluator (oracle_test.go) and the vectorized id-space executor, in
// every ablation mode.

// equivStore seeds a store with the shared corpus dataset; the query
// generator lives in internal/stsparql/corpus so the replication
// equivalence suite exercises the exact same workload.
func equivStore(rng *rand.Rand) *strabon.Store {
	st := strabon.NewStore()
	st.AddAll(corpus.Triples(rng))
	return st
}

func randQuery(rng *rand.Rand) string { return corpus.RandQuery(rng) }

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
// removes — and checks that the view each store then serves layers a
// delta on its last full build, so the queries that follow run against
// base and delta merged.
func writeDelta(t *testing.T, seed int64, stores ...*strabon.Store) {
	t.Helper()
	adds, removes := corpus.Delta(rand.New(rand.NewSource(seed)), stores[0].Triples())
	for _, st := range stores {
		st.AddAll(adds)
		for _, tr := range removes {
			st.Remove(tr)
		}
		st.Snapshot()
		if st.ViewCounters().DeltaRows == 0 {
			t.Fatal("the writes folded: the view has no delta")
		}
	}
}

func TestExecutorEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(corpus.Seed))
	st := equivStore(rng)
	modes := []struct {
		name       string
		optimizer  bool
		pushdown   bool
		spatialIdx bool
	}{
		{"default", true, true, true},
		{"no-optimizer", false, true, true},
		{"no-pushdown", true, false, true}, // A1 ablation: pushdown off
		{"no-rtree", true, true, false},    // A1 ablation: index scan
	}
	queries := make([]string, 400)
	for i := range queries {
		queries[i] = randQuery(rng)
	}
	for _, leg := range []string{"full build", "base+delta"} {
		if leg == "base+delta" {
			writeDelta(t, corpus.Seed+1, st)
		}
		for qi, query := range queries {
			for _, m := range modes {
				st.SetSpatialIndexEnabled(m.spatialIdx)
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
				oc, vc := canonBindings(ores), canonBindings(vres)
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
	st.SetSpatialIndexEnabled(true)
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
	queries := make([]string, 400)
	for i := range queries {
		queries[i] = randQuery(rng)
	}
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

// TestExecutorEquivalenceAggregates covers GROUP BY / aggregate queries,
// which take the decode-then-aggregate path.
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
