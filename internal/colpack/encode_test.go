package colpack

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/geo"
)

// pinnedSnapshotData is a fixed encoder input that reaches every section
// shape: array and bitmap posting containers (predicate 1 carries every
// other row), partial last blocks, geometries and a statistics block.
func pinnedSnapshotData() *SnapshotData {
	const nRows, nTerms = 70000, 9001
	d := &SnapshotData{
		Seq:     77,
		Version: 78,
		S:       make([]uint64, nRows),
		P:       make([]uint64, nRows),
		O:       make([]uint64, nRows),
		Terms:   testTerms(nTerms),
	}
	x := uint64(12345)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x%n + 1
	}
	for i := 0; i < nRows; i++ {
		d.S[i] = next(nTerms)
		d.P[i] = 1
		if i%2 == 1 {
			d.P[i] = next(12) + 1
		}
		d.O[i] = next(nTerms)
	}
	post := make([][][]int32, 3)
	for comp, col := range [3][]uint64{d.S, d.P, d.O} {
		post[comp] = make([][]int32, nTerms+1)
		for row, id := range col {
			post[comp][id] = append(post[comp][id], int32(row))
		}
	}
	d.Postings = func(comp int, id uint64) []int32 { return post[comp][id] }
	for i := 0; i < 300; i++ {
		d.GeomIDs = append(d.GeomIDs, uint64(i*29)+3)
		f := float64(i)
		d.GeomEnvs = append(d.GeomEnvs, geo.Envelope{MinX: f, MinY: -f, MaxX: f + 0.5, MaxY: 1 - f})
	}
	d.Stats = StatsBlock{Triples: nRows, DistinctS: 7000, DistinctP: 13, DistinctO: 7001, Geoms: 300}
	for p := uint64(1); p <= 13; p++ {
		d.Stats.Pred = append(d.Stats.Pred, PredStat{ID: p, Count: int(p) * 1000, DistinctS: int(p) * 300, DistinctO: 4000})
	}
	return d
}

// TestEncodeImagePinned pins the encoder's output byte for byte: the
// hash was taken from the encoder before its buffer was sized exactly,
// so a sizing change that moves a single byte fails here.
func TestEncodeImagePinned(t *testing.T) {
	img, err := Encode(pinnedSnapshotData())
	if err != nil {
		t.Fatal(err)
	}
	const want = "6fafeb7f8b03c2459cbde980830031ace63690e49b7b42fe975d5239e32d07d6"
	sum := sha256.Sum256(img)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("image sha256 = %s (%d bytes), want %s", got, len(img), want)
	}
	if _, err := OpenBytes(img); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeAllocatesOnce bounds Encode's allocation at 1.25× the image
// it returns: the image is allocated once at its final length.
func TestEncodeAllocatesOnce(t *testing.T) {
	d := pinnedSnapshotData()
	var size int
	allocs := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			img, err := Encode(d)
			if err != nil {
				b.Fatal(err)
			}
			size = len(img)
		}
	})
	if per := allocs.AllocedBytesPerOp(); float64(per) > 1.25*float64(size) {
		t.Fatalf("Encode allocated %d bytes for a %d-byte image (%.2f×), want at most 1.25×", per, size, float64(per)/float64(size))
	}
}
