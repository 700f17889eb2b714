package strabon

// Base + delta views: every accessor of the view Store.Snapshot builds
// must answer exactly as a fold of the same version does — same rows in
// the same order, same statistics — whatever mix of writes, compactions
// and folds came before, and whether the base is an image a fold built
// or the mapped file the store booted from.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rdf"
)

// fullView is a fold of the store's current version into a fresh image,
// installed nowhere; a store still served from its mapped file is its
// own full build.
func fullView(st *Store) *Snapshot {
	st.mu.RLock()
	sn := &Snapshot{version: st.version}
	fp := st.foldLocked(st.appliedSeq)
	st.mu.RUnlock()
	sn.base = fp.in.build()
	return sn
}

// viewGen draws triples from a small vocabulary, so that writes hit
// existing (predicate, subject) and (predicate, object) pairs as often
// as new ones, and geometry literals repeat.
type viewGen struct{ rng *rand.Rand }

func (g viewGen) triple() rdf.Triple {
	s := rdf.IRI(fmt.Sprintf("http://ex/s%d", g.rng.Intn(300)))
	p := g.rng.Intn(6)
	pred := rdf.IRI(fmt.Sprintf("http://ex/p%d", p))
	var o rdf.Term
	switch p {
	case 0:
		o = rdf.IRI(fmt.Sprintf("http://ex/C%d", g.rng.Intn(4)))
	case 1:
		o = rdf.IntegerLiteral(int64(g.rng.Intn(40)))
	case 2:
		o = rdf.IRI(fmt.Sprintf("http://ex/s%d", g.rng.Intn(300)))
	case 3:
		o = rdf.TypedLiteral(fmt.Sprintf("POINT (%d.5 %d.5)", 20+g.rng.Intn(12), 30+g.rng.Intn(12)),
			"http://strdf.di.uoa.gr/ontology#WKT")
	default:
		o = rdf.Literal(fmt.Sprintf("v%d", g.rng.Intn(500)))
	}
	return rdf.NewTriple(s, pred, o)
}

func (g viewGen) batch(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = g.triple()
	}
	return out
}

// checkView compares every accessor of sn with those of want, a full
// build of the same version. Row ids differ between the two (a view keeps
// its base's numbering), so rows are compared by content, in order.
func checkView(t *testing.T, step string, sn, want *Snapshot, rng *rand.Rand) {
	t.Helper()
	if sn.Version() != want.Version() {
		t.Fatalf("%s: version %d, full build %d", step, sn.Version(), want.Version())
	}
	if sn.NRows() != want.NRows() {
		t.Fatalf("%s: NRows %d, full build %d", step, sn.NRows(), want.NRows())
	}
	rowsOf := func(v *Snapshot, pat TriplePattern) [][3]uint64 {
		var out [][3]uint64
		for _, r := range v.MatchRows(pat, nil) {
			s, p, o := v.Row(r)
			out = append(out, [3]uint64{s, p, o})
		}
		return out
	}
	// Sampled ids: components of live rows, and random ids of which some
	// no row carries.
	var samples [][3]uint64
	if n := want.NRows(); n > 0 {
		all := want.MatchRows(TriplePattern{}, nil)
		for i := 0; i < 12; i++ {
			s, p, o := want.Row(all[rng.Intn(n)])
			samples = append(samples, [3]uint64{s, p, o})
		}
	}
	maxID := 2 + uint64(want.base.nTerms())
	for i := 0; i < 4; i++ {
		samples = append(samples, [3]uint64{1 + uint64(rng.Int63n(int64(maxID))), 1 + uint64(rng.Int63n(int64(maxID))), 1 + uint64(rng.Int63n(int64(maxID)))})
	}
	// All eight bound/unbound shapes: the unbound one once, the seven
	// others per sample.
	pats := []TriplePattern{{}}
	for _, ids := range samples {
		for mask := 1; mask < 8; mask++ {
			var pat TriplePattern
			for c, dst := range [3]*uint64{&pat.S, &pat.P, &pat.O} {
				if mask&(1<<c) != 0 {
					*dst = ids[c]
				}
			}
			pats = append(pats, pat)
		}
	}
	var buf []int32
	for _, pat := range pats {
		got, exp := rowsOf(sn, pat), rowsOf(want, pat)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: MatchRows(%+v) = %v, full build %v", step, pat, got, exp)
		}
		// The caller's scratch path must agree with the one-shot one.
		if n := len(sn.MatchRows(pat, &buf)); n != len(exp) {
			t.Fatalf("%s: MatchRows(%+v) with scratch = %d rows, want %d", step, pat, n, len(exp))
		}
		if g, w := sn.Cardinality(pat), want.Cardinality(pat); g != w {
			t.Fatalf("%s: Cardinality(%+v) = %d, full build %d", step, pat, g, w)
		}
	}
	if g, w := sn.GeomIDs(), want.GeomIDs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: GeomIDs = %v, full build %v", step, g, w)
	}
	for _, id := range append(want.GeomIDs(), 0, maxID) {
		gv, gok := sn.Geometry(id)
		wv, wok := want.Geometry(id)
		if gok != wok || (gok && (gv.SRID != wv.SRID || gv.Geom.Envelope() != wv.Geom.Envelope())) {
			t.Fatalf("%s: Geometry(%d) = %v/%v, full build %v/%v", step, id, gv, gok, wv, wok)
		}
	}
	for _, box := range []geo.Envelope{{MinX: 20, MinY: 30, MaxX: 26, MaxY: 36}, {MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}, {MinX: 25, MinY: 35, MaxX: 25.6, MaxY: 35.6}} {
		g, w := sn.SpatialCandidates(box), want.SpatialCandidates(box)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		if len(g) != len(w) || (len(g) > 0 && !reflect.DeepEqual(g, w)) {
			t.Fatalf("%s: SpatialCandidates(%v) = %v, full build %v", step, box, g, w)
		}
		if gs, ws := sn.SpatialSelectivity(box), want.SpatialSelectivity(box); gs != ws {
			t.Fatalf("%s: SpatialSelectivity = %v, full build %v", step, gs, ws)
		}
	}
	ids := make([]uint64, maxID+1)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if g, w := sn.DecodeAll(ids, make([]rdf.Term, len(ids))), want.DecodeAll(ids, make([]rdf.Term, len(ids))); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: DecodeAll differs from the full build", step)
	}
	if g, w := sn.Stats(), want.Stats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Stats = %+v\nfull build %+v", step, g, w)
	}
}

// TestViewMatchesFullBuild runs seeded random sequences of writes,
// compactions, views and folds, from a heap store and from a mapped one,
// and after every step compares the store's view with a full build of
// the same version, and the store's own O(1) statistics with the view's.
// Views taken along the way are re-checked at the end: later writes must
// not have changed them.
func TestViewMatchesFullBuild(t *testing.T) {
	for _, start := range []string{"heap", "mapped"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", start, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g := viewGen{rng}
				st := NewStore()
				st.AddAll(g.batch(1500))
				if start == "mapped" {
					mapped, err := RestorePacked(packFixture(t, st, 1))
					if err != nil {
						t.Fatal(err)
					}
					st = mapped
				}
				type kept struct{ sn, want *Snapshot }
				var old []kept
				deltaViews := 0
				for step := 0; step < 120; step++ {
					var op string
					switch k := rng.Intn(20); {
					case k < 6:
						op = "Add"
						st.Add(g.triple())
					case k < 9:
						op = "AddAll"
						st.AddAll(g.batch(1 + rng.Intn(200)))
					case k < 10:
						op = "AddAll past the fold policy"
						bulk := g.batch(foldMinRows + 1)
						for i := range bulk {
							bulk[i].S = rdf.IRI(fmt.Sprintf("http://ex/bulk%d-%d", step, i))
						}
						st.AddAll(bulk)
					case k < 15:
						op = "Remove"
						if sn := fullView(st); sn.NRows() > 0 {
							rows := sn.MatchRows(TriplePattern{}, nil)
							s, p, o := sn.Row(rows[rng.Intn(len(rows))])
							terms := sn.DecodeAll([]uint64{s, p, o}, make([]rdf.Term, 3))
							if !st.Remove(rdf.NewTriple(terms[0], terms[1], terms[2])) {
								t.Fatalf("step %d: Remove of a live triple failed", step)
							}
						}
					case k < 18:
						op = "Fold"
						if sn := st.Fold(st.AppliedSeq()); sn.delta != nil {
							t.Fatalf("step %d: Fold returned a view with a delta", step)
						}
					default:
						op = "Snapshot"
						sn := st.Snapshot()
						old = append(old, kept{sn, fullView(st)})
					}
					sn := st.Snapshot()
					if sn.delta != nil {
						deltaViews++
					}
					if op == "AddAll past the fold policy" && sn.delta != nil {
						t.Fatalf("step %d: a delta of more than %d rows did not fold", step, foldMinRows)
					}
					checkView(t, fmt.Sprintf("step %d (%s)", step, op), sn, fullView(st), rng)
					if g, w := st.Stats(), sn.Stats(); g.Predicates != w.DistinctP || g.Triples != w.Triples {
						t.Fatalf("step %d (%s): Stats() = %+v, view statistics %+v", step, op, g, w)
					}
				}
				for i, k := range old {
					checkView(t, fmt.Sprintf("kept view %d", i), k.sn, k.want, rng)
				}
				// A view with a delta has no image: its base's would miss
				// the delta.
				st.Add(g.triple())
				if sn := st.Snapshot(); sn.delta != nil {
					if img, _ := sn.Image(); img != nil {
						t.Fatal("a view with a delta returned an image")
					}
				}
				if deltaViews < 50 {
					t.Fatalf("only %d of 120 views had a delta", deltaViews)
				}
			})
		}
	}
}

// TestSnapshotSingleFlight: many readers of a stale store at once cause
// exactly one build and all get the same view; and while a writer runs,
// no reader gets a view older than a version it observed before asking.
func TestSnapshotSingleFlight(t *testing.T) {
	st := packedFixtureStore(2000)
	st.Snapshot()
	const readers = 16
	for round := 0; round < 20; round++ {
		// A delta big enough that the build outlasts the readers' start.
		batch := make([]rdf.Triple, 500)
		for i := range batch {
			batch[i] = rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://ex/new%d-%d", round, i)), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0"))
		}
		st.AddAll(batch)
		before := st.ViewCounters()
		got := make([]*Snapshot, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got[i] = st.Snapshot()
			}(i)
		}
		close(start)
		wg.Wait()
		after := st.ViewCounters()
		if builds := after.FullBuilds + after.DeltaBuilds - before.FullBuilds - before.DeltaBuilds; builds != 1 {
			t.Fatalf("round %d: %d builds for %d concurrent readers, want 1", round, builds, readers)
		}
		for i, sn := range got {
			if sn != got[0] {
				t.Fatalf("round %d: reader %d got a different view", round, i)
			}
		}
		if got[0].Version() != st.Version() || got[0].NRows() != st.Len() {
			t.Fatalf("round %d: view at version %d with %d rows, store at %d with %d", round, got[0].Version(), got[0].NRows(), st.Version(), st.Len())
		}
	}

	// Readers that find a build in flight wait for it; when it turns out
	// older than the version they observed, one of them builds again.
	for _, stale := range []bool{false, true} {
		st.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://ex/stale-%v", stale)), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0")))
		b := &viewBuild{done: make(chan struct{})}
		st.building.Store(b)
		before := st.ViewCounters()
		got := make([]*Snapshot, readers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = st.Snapshot()
			}(i)
		}
		for st.ViewCounters().BuildWaits-before.BuildWaits < readers {
			runtime.Gosched()
		}
		b.sn = fullView(st)
		if stale {
			b.sn.version--
		}
		st.building.Store(nil)
		close(b.done)
		wg.Wait()
		after := st.ViewCounters()
		builds := after.FullBuilds + after.DeltaBuilds - before.FullBuilds - before.DeltaBuilds
		want := b.sn
		if stale {
			want = st.Snapshot()
		}
		if builds != uint64(b2i(stale)) {
			t.Fatalf("stale=%v: %d builds after the joined build", stale, builds)
		}
		for i, sn := range got {
			if sn != want {
				t.Fatalf("stale=%v: reader %d did not get the current view", stale, i)
			}
		}
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Add(rdf.NewTriple(rdf.IRI(fmt.Sprintf("http://ex/w%d", i)), rdf.IRI("http://ex/val"), rdf.IntegerLiteral(int64(i))))
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := st.Version()
				if sn := st.Snapshot(); sn.Version() < v {
					t.Errorf("view at version %d after observing %d", sn.Version(), v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}

// TestApplyDuringFold pins that a fold encodes with no store lock held:
// an Apply issued while a fold is encoding returns before the fold does,
// and the next view layers that Apply on the fold as a delta.
func TestApplyDuringFold(t *testing.T) {
	st := packedFixtureStore(200)
	encoding, release := make(chan struct{}), make(chan struct{})
	testHookFoldEncode = func() {
		close(encoding)
		<-release
	}
	defer func() { testHookFoldEncode = nil }()
	folded := make(chan *Snapshot)
	go func() { folded <- st.Fold(0) }()
	<-encoding
	applied := make(chan error)
	go func() {
		_, err := st.Apply(nil, []rdf.Triple{rdf.NewTriple(rdf.IRI("http://ex/during"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex/Class0"))})
		applied <- err
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Apply waited for the fold's encode")
	}
	select {
	case <-folded:
		t.Fatal("the fold returned before its encode was released")
	default:
	}
	close(release)
	sn := <-folded
	if sn.Version() != st.Version()-1 || sn.delta != nil {
		t.Fatalf("fold at version %d (delta %v), store at %d", sn.Version(), sn.delta != nil, st.Version())
	}
	if next := st.Snapshot(); next.base != sn.base || next.delta == nil || len(next.delta.cols[0]) != 1 {
		t.Fatal("the next view is not the fold plus the Apply")
	}
}
