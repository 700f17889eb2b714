package colpack

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
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

// TestEncodeImagePinned pins the encoder's output byte for byte, so a
// sizing change that moves a single byte fails here.
func TestEncodeImagePinned(t *testing.T) {
	img, err := Encode(pinnedSnapshotData())
	if err != nil {
		t.Fatal(err)
	}
	const want = "b1062f96a19717d3b64397203bd1b66452199a0a6d33f347a8f67adac6a5fe1b"
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

// legacyImage is testSnapshotData(t, 300) as encoded by a build that
// also wrote section 15, a term-ordered permutation of the dictionary
// ids that no reader read.
const legacyImage = "testdata/perm15-300rows.pack"

// TestOpenLegacyImage opens an image written with section 15 and reads
// every row and term back. The image this build writes from the same
// data lacks only that section.
func TestOpenLegacyImage(t *testing.T) {
	d := testSnapshotData(t, 300)
	legacy, err := os.ReadFile(legacyImage)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBytes(legacy)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	checkReader(t, r, d)
	if len(r.secs[secDictPerm]) == 0 {
		t.Fatal("the legacy image has no section 15")
	}
	img, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	for id := range cur.secs {
		want := r.secs[id]
		if id == secDictPerm {
			want = nil
		}
		if !bytes.Equal(cur.secs[id], want) {
			t.Errorf("section %d differs from the legacy image's", id)
		}
	}
}

// TestOpenRejectsBadTOC relabels one TOC entry of a sealed image: to an
// id another entry has, and to secDictPerm, which leaves the statistics
// section missing.
func TestOpenRejectsBadTOC(t *testing.T) {
	img, err := Encode(testSnapshotData(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from, to uint32
		want     string
	}{
		{secDict, secDictOff, "repeats section"},
		{secStats, secDictPerm, "section 18 missing"},
	} {
		bad := append([]byte(nil), img...)
		footerEnd := len(bad) - 16
		footer := bad[footerEnd-int(le32(bad[footerEnd:])) : footerEnd]
		for i := 0; i < int(le32(footer)); i++ {
			if e := footer[4+i*32:]; le32(e) == c.from {
				put32(e, c.to)
			}
		}
		resealImage(bad)
		if _, err := OpenBytes(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("section %d relabelled %d: err = %v, want %q", c.from, c.to, err, c.want)
		}
	}
}
