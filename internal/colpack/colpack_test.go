package colpack

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/rdf"
)

func TestU64ColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]uint64{
		"empty":      {},
		"single":     {42},
		"constant":   {9, 9, 9, 9, 9},
		"sequential": seq(3 * BlockSize),
		"maxvals":    {0, 1<<64 - 1, 1 << 63, 7},
		"one-block":  randU64(rng, BlockSize, 1<<20),
		"ragged":     randU64(rng, 2*BlockSize+17, 1<<40),
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) {
			enc := AppendU64Col(nil, vals)
			col, err := OpenU64Col(enc)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if col.Len() != len(vals) {
				t.Fatalf("len = %d, want %d", col.Len(), len(vals))
			}
			var got []uint64
			var buf []uint64
			for b := 0; b < col.NumBlocks(); b++ {
				buf = col.DecodeBlock(b, buf)
				got = append(got, buf...)
				mn, mx, _ := col.BlockRange(b)
				for _, v := range buf {
					if v < mn || v > mx {
						t.Fatalf("block %d: value %d outside zone map [%d,%d]", b, v, mn, mx)
					}
				}
			}
			if len(got) != len(vals) {
				t.Fatalf("decoded %d values, want %d", len(got), len(vals))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("value %d = %d, want %d", i, got[i], vals[i])
				}
			}
			// Point access agrees too, at every position.
			for i, want := range vals {
				if v := col.At(i); v != want {
					t.Fatalf("At(%d) = %d, want %d", i, v, want)
				}
			}
		})
	}
}

func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string][]int32{
		"single":      {0},
		"small":       {1, 5, 9, 4095},
		"chunk-edges": {65535, 65536, 131071, 131072},
		"dense":       seqI32(0, 70000),         // forces bitmap containers
		"sparse-wide": sparse(rng, 5000, 1<<24), // array containers across many chunks
		"mixed":       append(seqI32(65536, 70000), sparse(rng, 300, 1<<22)...),
	}
	for name, rows := range cases {
		rows := append([]int32(nil), rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
		rows = dedupI32(rows)
		t.Run(name, func(t *testing.T) {
			enc := AppendPostings(nil, rows)
			got, err := DecodePostings(enc, len(rows), nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(rows) {
				t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
			}
			for i := range rows {
				if got[i] != rows[i] {
					t.Fatalf("row %d = %d, want %d", i, got[i], rows[i])
				}
			}
		})
	}
}

func TestDictRoundTripAndOrder(t *testing.T) {
	terms := testTerms(777)
	blob, offs := AppendDictBlocks(nil, terms)
	if len(offs) != (len(terms)+DictBlockSize-1)/DictBlockSize+1 {
		t.Fatalf("offset count %d", len(offs))
	}
	var got []rdf.Term
	var buf []rdf.Term
	for b := 0; b+1 < len(offs); b++ {
		count := DictBlockSize
		if b == len(offs)-2 {
			count = len(terms) - b*DictBlockSize
		}
		var err error
		buf, err = DecodeDictBlock(blob[offs[b]:offs[b+1]], count, buf)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		got = append(got, buf...)
	}
	if len(got) != len(terms) {
		t.Fatalf("decoded %d terms, want %d", len(got), len(terms))
	}
	for i := range terms {
		if got[i] != terms[i] {
			t.Fatalf("term %d = %+v, want %+v", i, got[i], terms[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := testSnapshotData(t, 10_000)
	path := filepath.Join(t.TempDir(), "snap.packed")
	writeFile(t, path, d)
	r, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer r.Close()
	checkReader(t, r, d)
	if seq, err := Verify(path); err != nil || seq != d.Seq {
		t.Fatalf("Verify = %d, %v", seq, err)
	}
}

// checkReader reads every row, every term, the geometries, the
// statistics and every 97th term's postings of r back and compares them
// with d, the data r was encoded from.
func checkReader(t *testing.T, r *Reader, d *SnapshotData) {
	t.Helper()
	if r.Seq() != d.Seq || r.Version() != d.Version {
		t.Fatalf("seq/version = %d/%d, want %d/%d", r.Seq(), r.Version(), d.Seq, d.Version)
	}
	if r.NRows() != len(d.S) || r.NTerms() != len(d.Terms) || r.NGeoms() != len(d.GeomIDs) {
		t.Fatalf("meta mismatch: rows=%d terms=%d geoms=%d", r.NRows(), r.NTerms(), r.NGeoms())
	}
	// Columns decode back exactly.
	for comp, want := range [3][]uint64{d.S, d.P, d.O} {
		col := r.Col(comp)
		var buf []uint64
		for b := 0; b < col.NumBlocks(); b++ {
			buf = col.DecodeBlock(b, buf)
			for i, v := range buf {
				if v != want[b*BlockSize+i] {
					t.Fatalf("col %d row %d = %d, want %d", comp, b*BlockSize+i, v, want[b*BlockSize+i])
				}
			}
		}
	}
	// Postings round-trip through offset/count columns.
	for comp := 0; comp < 3; comp++ {
		for id := uint64(1); id <= uint64(len(d.Terms)); id += 97 {
			i := int(id - 1)
			start, end := r.PostOff(comp).At(i), r.PostOff(comp).At(i+1)
			cnt := r.PostCnt(comp).At(i)
			want := d.Postings(comp, id)
			if int(cnt) != len(want) {
				t.Fatalf("comp %d id %d: count %d, want %d", comp, id, cnt, len(want))
			}
			if cnt == 0 {
				continue
			}
			got, err := DecodePostings(r.PostingData(comp, start, end), int(cnt), nil)
			if err != nil {
				t.Fatalf("comp %d id %d: %v", comp, id, err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("comp %d id %d row %d = %d, want %d", comp, id, k, got[k], want[k])
				}
			}
		}
	}
	// Dictionary terms.
	var dofs []uint64
	for b := 0; b <= r.NDictBlocks(); b++ {
		dofs = append(dofs, r.DictOff().At(b))
	}
	var terms []rdf.Term
	var tbuf []rdf.Term
	for b := 0; b < r.NDictBlocks(); b++ {
		count := DictBlockSize
		if b == r.NDictBlocks()-1 {
			count = len(d.Terms) - b*DictBlockSize
		}
		var err error
		tbuf, err = DecodeDictBlock(r.DictBlockData(dofs[b], dofs[b+1]), count, tbuf)
		if err != nil {
			t.Fatalf("dict block %d: %v", b, err)
		}
		terms = append(terms, tbuf...)
	}
	for i := range d.Terms {
		if terms[i] != d.Terms[i] {
			t.Fatalf("term %d mismatch", i)
		}
	}
	// Geometry ids/envelopes and stats.
	for i := 0; i < r.NGeoms(); i++ {
		id := r.GeomIDs().At(i)
		if id != d.GeomIDs[i] {
			t.Fatalf("geom id %d = %d, want %d", i, id, d.GeomIDs[i])
		}
		if r.GeomEnv(i) != d.GeomEnvs[i] {
			t.Fatalf("geom env %d mismatch", i)
		}
	}
	if got := r.Stats(); got.Triples != d.Stats.Triples || len(got.Pred) != len(d.Stats.Pred) {
		t.Fatalf("stats mismatch: %+v", got)
	}
}

// TestOpenRejectsCorruption flips or truncates bytes across the file
// and asserts Open refuses every mutant — the property recovery's
// fall-back-to-previous-generation depends on.
func TestOpenRejectsCorruption(t *testing.T) {
	d := testSnapshotData(t, 5_000)
	path := filepath.Join(t.TempDir(), "snap.packed")
	writeFile(t, path, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatalf("pristine file must open: %v", err)
	}
	// Every byte position class: header, early/mid/late sections,
	// footer body, footer trailer, trailing magic.
	positions := []int{0, 9, 40, len(orig) / 4, len(orig) / 2, 3 * len(orig) / 4, len(orig) - 30, len(orig) - 10, len(orig) - 1}
	for _, pos := range positions {
		mutant := append([]byte(nil), orig...)
		mutant[pos] ^= 0x40
		p := filepath.Join(t.TempDir(), "mutant.packed")
		if err := os.WriteFile(p, mutant, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("flip at %d: Open accepted corrupt file", pos)
		}
	}
	for _, cut := range []int{1, 8, 16, len(orig) / 2, len(orig) - 24} {
		p := filepath.Join(t.TempDir(), "trunc.packed")
		if err := os.WriteFile(p, orig[:len(orig)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("truncation by %d: Open accepted", cut)
		}
	}
}

// --- helpers -----------------------------------------------------------

func seq(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

func seqI32(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

func randU64(rng *rand.Rand, n int, span uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() % span
	}
	return out
}

func sparse(rng *rand.Rand, n int, span int64) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Int63n(span))
	}
	return out
}

func dedupI32(rows []int32) []int32 {
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			out = append(out, r)
		}
	}
	return out
}

func testTerms(n int) []rdf.Term {
	terms := make([]rdf.Term, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			terms = append(terms, rdf.Term{Kind: rdf.KindIRI, Value: fmt.Sprintf("http://teleios.example/entity/%06d", i)})
		case 1:
			terms = append(terms, rdf.Term{Kind: rdf.KindLiteral, Value: fmt.Sprintf("label %d", i)})
		case 2:
			terms = append(terms, rdf.Term{Kind: rdf.KindLiteral, Value: fmt.Sprintf("%d.5", i), Datatype: "http://www.w3.org/2001/XMLSchema#double"})
		default:
			terms = append(terms, rdf.Term{Kind: rdf.KindLiteral, Value: fmt.Sprintf("nom %d", i), Lang: "fr"})
		}
	}
	return terms
}

// testSnapshotData builds a plausible snapshot: nRows triples over a
// skewed term distribution with sorted posting lists derived from the
// columns themselves.
func testSnapshotData(t testing.TB, nRows int) *SnapshotData {
	rng := rand.New(rand.NewSource(int64(nRows)))
	nTerms := nRows/3 + 50
	terms := testTerms(nTerms)
	d := &SnapshotData{
		Seq:     123,
		Version: 456,
		S:       make([]uint64, nRows),
		P:       make([]uint64, nRows),
		O:       make([]uint64, nRows),
		Terms:   terms,
	}
	for i := 0; i < nRows; i++ {
		d.S[i] = uint64(rng.Intn(nTerms)) + 1
		d.P[i] = uint64(rng.Intn(20)) + 1 // few predicates, long lists
		d.O[i] = uint64(rng.Intn(nTerms)) + 1
	}
	post := make([]map[uint64][]int32, 3)
	for comp, col := range [3][]uint64{d.S, d.P, d.O} {
		post[comp] = map[uint64][]int32{}
		for row, id := range col {
			post[comp][id] = append(post[comp][id], int32(row))
		}
	}
	d.Postings = func(comp int, id uint64) []int32 { return post[comp][id] }
	for i := 0; i < 40; i++ {
		id := uint64(i*7) + 1
		d.GeomIDs = append(d.GeomIDs, id)
		x, y := float64(i), float64(i*2)
		d.GeomEnvs = append(d.GeomEnvs, geo.Envelope{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1})
	}
	d.Stats = StatsBlock{
		Triples: nRows, DistinctS: len(post[0]), DistinctP: len(post[1]), DistinctO: len(post[2]),
		Geoms: len(d.GeomIDs),
		Pred:  []PredStat{{ID: 1, Count: 100, DistinctS: 10, DistinctO: 20}},
	}
	return d
}

func writeFile(t testing.TB, path string, d *SnapshotData) {
	t.Helper()
	img, err := Encode(d)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}
