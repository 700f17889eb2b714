package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
)

func box(x, y, w, h float64) geo.Envelope {
	return geo.Envelope{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// randomItems generates n deterministic pseudo-random boxes.
func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		items[i] = Item{Box: box(x, y, rng.Float64()*2, rng.Float64()*2), ID: uint64(i)}
	}
	return items
}

// bruteSearch is the oracle: linear scan.
func bruteSearch(items []Item, q geo.Envelope) []uint64 {
	var out []uint64
	for _, it := range items {
		if it.Box.Intersects(q) {
			out = append(out, it.ID)
		}
	}
	return out
}

func sortIDs(ids []uint64) []uint64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBulkLoadAgainstBrute(t *testing.T) {
	items := randomItems(1000, 3)
	tr := BulkLoad(items, 16)
	if tr.size != 1000 {
		t.Fatalf("size = %d", tr.size)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		q := box(rng.Float64()*90, rng.Float64()*90, rng.Float64()*15, rng.Float64()*15)
		got := sortIDs(tr.Search(q, nil))
		want := sortIDs(bruteSearch(items, q))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d ids, want %d", i, len(got), len(want))
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil, 16)
	if tr.size != 0 {
		t.Fatal("empty bulk load")
	}
	if got := tr.Search(box(0, 0, 100, 100), nil); len(got) != 0 {
		t.Fatal("search on empty tree")
	}
}

func TestBulkLoadSingle(t *testing.T) {
	tr := BulkLoad([]Item{{Box: box(1, 1, 1, 1), ID: 42}}, 16)
	got := tr.Search(box(0, 0, 3, 3), nil)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestHeightGrows(t *testing.T) {
	if !BulkLoad(nil, 4).root.leaf {
		t.Fatal("empty tree: the root is not a leaf")
	}
	// 200 items at fan-out 4 need at least three levels.
	n := BulkLoad(randomItems(200, 7), 4).root
	for level := 1; level < 3; level, n = level+1, n.children[0] {
		if n.leaf {
			t.Fatalf("200 items with fanout 4: height %d", level)
		}
	}
}

func TestDuplicateBoxes(t *testing.T) {
	b := box(5, 5, 1, 1)
	var items []Item
	for i := 0; i < 50; i++ {
		items = append(items, Item{Box: b, ID: uint64(i)})
	}
	got := BulkLoad(items, 4).Search(b, nil)
	if len(got) != 50 {
		t.Fatalf("got %d duplicates", len(got))
	}
}

func TestPointBoxes(t *testing.T) {
	// Degenerate zero-area boxes (points) index correctly.
	var items []Item
	for i := 0; i < 100; i++ {
		x := float64(i % 10)
		y := float64(i / 10)
		items = append(items, Item{Box: geo.Envelope{MinX: x, MinY: y, MaxX: x, MaxY: y}, ID: uint64(i)})
	}
	got := BulkLoad(items, 8).Search(box(2, 2, 0.5, 0.5), nil)
	if len(got) != 1 || got[0] != 22 {
		t.Fatalf("got %v", got)
	}
}
