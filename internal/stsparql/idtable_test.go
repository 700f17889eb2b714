package stsparql

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/strdf"
)

// joinTableCase checks buildJoinTable against a Go-map reference: every
// key's bucket holds exactly the candidates carrying it, ascending, also
// when probed from several goroutines, and keys absent from the
// candidates (the zero key included) have no bucket.
func joinTableCase[K comparable](t *testing.T, name string, keys []K, absent []K, hash func(K) uint64) {
	t.Helper()
	cands := make([]int32, len(keys))
	for i := range cands {
		cands[i] = int32(2*i + 1) // ascending, not dense
	}
	keyOf := func(c int32) K { return keys[(c-1)/2] }
	want := map[K][]int32{}
	for _, c := range cands {
		want[keyOf(c)] = append(want[keyOf(c)], c)
	}
	h := buildJoinTable(cands, keyOf, hash)
	// Morsel workers probe one table concurrently; so do these.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, ws := range want {
				if got := h.bucket(k, hash(k)); !slices.Equal(got, ws) {
					t.Errorf("%s: bucket(%v) = %v, want %v", name, k, got, ws)
				}
			}
		}()
	}
	wg.Wait()
	var zero K
	for _, k := range append(absent, zero) {
		if _, in := want[k]; in {
			continue
		}
		if got := h.bucket(k, hash(k)); got != nil {
			t.Errorf("%s: absent key %v has bucket %v", name, k, got)
		}
	}
	if n := len(h.slots); n&(n-1) != 0 || n < 2*len(keys) {
		t.Errorf("%s: %d slots for %d entries", name, n, len(keys))
	}
}

// TestIDTableMatchesMap is the join table's property test, for one-id
// and three-id keys, under the real hashes and under one that sends
// every key to the same slot.
func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	collide := func(uint64) uint64 { return 0 }
	collide3 := func([3]uint64) uint64 { return 0 }
	for _, n := range []int{0, 1, 2, 7, 100, 5000} {
		distinct := make([]uint64, n)
		equal := make([]uint64, n)
		some := make([]uint64, n)
		distinct3 := make([][3]uint64, n)
		some3 := make([][3]uint64, n)
		for i := 0; i < n; i++ {
			distinct[i] = uint64(i)*7919 + 1
			equal[i] = 42
			some[i] = uint64(rng.Intn(n/3+1)) + 1
			distinct3[i] = [3]uint64{uint64(i) + 1, 0, uint64(i % 3)}
			some3[i] = [3]uint64{0, uint64(rng.Intn(4)) + 1, uint64(rng.Intn(n/5+1)) + 1}
		}
		absent := []uint64{3, 1 << 40, uint64(n)*7919 + 2}
		absent3 := [][3]uint64{{1, 1, 1}, {0, 9, 0}, {uint64(n) + 1, 0, 0}}
		for _, hash := range []struct {
			name string
			one  func(uint64) uint64
			tri  func([3]uint64) uint64
		}{{"fibonacci", hashID, hashKey3}, {"one-slot", collide, collide3}} {
			if hash.name == "one-slot" && n > 100 {
				continue // quadratic by design
			}
			pre := hash.name + "/n=" + itoa(n)
			joinTableCase(t, pre+"/distinct", distinct, absent, hash.one)
			joinTableCase(t, pre+"/equal", equal, absent, hash.one)
			joinTableCase(t, pre+"/repeated", some, absent, hash.one)
			joinTableCase(t, pre+"/distinct3", distinct3, absent3, hash.tri)
			joinTableCase(t, pre+"/repeated3", some3, absent3, hash.tri)
		}
	}
}

// TestSpatialPushdownSetBounds drives the spatial pushdown through the
// executor: an R-tree answer with no ids must still drop every row of
// the geometry scan (an empty row list is not "no pushdown"), and a box
// covering every geometry must keep every row.
func TestSpatialPushdownSetBounds(t *testing.T) {
	st := strabon.NewStore()
	for i := 0; i < 50; i++ {
		p := geo.Point{X: 20 + float64(i%10)/10, Y: 38 + float64(i/10)/10}
		st.Add(rdf.NewTriple(rdf.IRI("http://ex/f"+itoa(i)), rdf.IRI("http://ex/geom"), strdf.Literal(p, geo.SRIDWGS84)))
	}
	e := New(st)
	scanRows := func(box string) (scan, result int) {
		q, err := ParseQuery(`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
			SELECT ?f WHERE { ?f <http://ex/geom> ?g .
			FILTER(strdf:intersects(?g, "` + box + `"^^strdf:WKT)) }`)
		if err != nil {
			t.Fatal(err)
		}
		v := newVexec(context.Background(), e)
		tb, err := v.evalRoot(q.Where)
		if err != nil {
			t.Fatal(err)
		}
		return v.plan.nodes[0].actual, tb.n()
	}
	if scan, res := scanRows("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"); scan != 0 || res != 0 {
		t.Errorf("box meeting no geometry: scan kept %d rows, result %d; want 0, 0", scan, res)
	}
	if scan, res := scanRows("POLYGON ((19 37, 22 37, 22 40, 19 40, 19 37))"); scan != 50 || res != 50 {
		t.Errorf("box covering every geometry: scan kept %d rows, result %d; want 50, 50", scan, res)
	}
}
