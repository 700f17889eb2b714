package colpack

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// Fuzz targets over the three encoders and the image reader: arbitrary
// inputs must survive an encode→decode round trip bit-identically, and
// the decoders must never read outside their input or panic. Seeds run
// under plain `go test`; `go test -fuzz=FuzzU64Col ./internal/colpack/`
// explores.

func FuzzU64ColRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(make([]byte, 9*BlockSize))
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]uint64, 0, len(raw)/3)
		for i := 0; i+1 < len(raw); i += 2 {
			// Mix widths: alternate narrow deltas and wide values.
			v := uint64(binary.LittleEndian.Uint16(raw[i:]))
			if v%3 == 0 {
				v = v<<48 | v
			}
			vals = append(vals, v)
		}
		enc := AppendU64Col(nil, vals)
		col, err := OpenU64Col(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		var buf []uint64
		for b := 0; b < col.NumBlocks(); b++ {
			buf = col.DecodeBlock(b, buf)
			for i, v := range buf {
				if v != vals[b*BlockSize+i] {
					t.Fatalf("block %d value %d: %d != %d", b, i, v, vals[b*BlockSize+i])
				}
			}
		}
	})
}

func FuzzU64ColOpenHostile(f *testing.F) {
	f.Add(AppendU64Col(nil, []uint64{1, 99, 3}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Open on arbitrary bytes must either reject or yield a column
		// whose every block decodes in-bounds (no panic = pass).
		col, err := OpenU64Col(raw)
		if err != nil {
			return
		}
		var buf []uint64
		for b := 0; b < col.NumBlocks(); b++ {
			buf = col.DecodeBlock(b, buf)
		}
	})
}

func FuzzPostingsRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add(make([]byte, 3000))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rows := make([]int32, 0, len(raw)/2)
		acc := int32(0)
		for i := 0; i+1 < len(raw); i += 2 {
			acc += int32(binary.LittleEndian.Uint16(raw[i:]))%997 + 1
			rows = append(rows, acc)
		}
		enc := AppendPostings(nil, rows)
		got, err := DecodePostings(enc, len(rows), nil)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for i := range rows {
			if got[i] != rows[i] {
				t.Fatalf("row %d: %d != %d", i, got[i], rows[i])
			}
		}
	})
}

func FuzzPostingsDecodeHostile(f *testing.F) {
	f.Add(AppendPostings(nil, []int32{5, 70000}), 2)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 9)
	f.Fuzz(func(t *testing.T, raw []byte, count int) {
		if count < 0 || count > 1<<20 {
			return
		}
		// Must error or succeed without reading outside raw.
		DecodePostings(raw, count, nil)
	})
}

func FuzzDictRoundTrip(f *testing.F) {
	f.Add([]byte("http://example.org/a\x00http://example.org/b"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Carve raw into term fields; duplicates are fine for the
		// encoder (only the store guarantees uniqueness).
		fields := splitFuzz(raw)
		terms := make([]rdf.Term, 0, len(fields))
		for i, v := range fields {
			terms = append(terms, rdf.Term{Kind: rdf.TermKind(i%3 + 1), Value: v, Lang: fields[(i+1)%len(fields)]})
		}
		blob, offs := AppendDictBlocks(nil, terms)
		var buf []rdf.Term
		for b := 0; b+1 < len(offs); b++ {
			count := DictBlockSize
			if b == len(offs)-2 {
				count = len(terms) - b*DictBlockSize
			}
			var err error
			buf, err = DecodeDictBlock(blob[offs[b]:offs[b+1]], count, buf)
			if err != nil {
				t.Fatalf("own encoding rejected: %v", err)
			}
			for i := range buf {
				if buf[i] != terms[b*DictBlockSize+i] {
					t.Fatalf("term %d mismatch", b*DictBlockSize+i)
				}
			}
		}
		// The permutation sort must agree with CompareTerms.
		ids := make([]uint64, len(terms))
		for i := range ids {
			ids[i] = uint64(i + 1)
		}
		sortPerm(ids, terms)
		if !sort.SliceIsSorted(ids, func(i, j int) bool {
			return CompareTerms(terms[ids[i]-1], terms[ids[j]-1]) < 0 ||
				(CompareTerms(terms[ids[i]-1], terms[ids[j]-1]) == 0 && ids[i] < ids[j])
		}) {
			// Equal terms may order either way; only verify non-descending.
			for i := 1; i < len(ids); i++ {
				if CompareTerms(terms[ids[i-1]-1], terms[ids[i]-1]) > 0 {
					t.Fatalf("permutation descends at %d", i)
				}
			}
		}
	})
}

func FuzzDictDecodeHostile(f *testing.F) {
	blob, _ := AppendDictBlocks(nil, testTerms(70))
	f.Add(blob, 64)
	f.Add([]byte{0x80}, 1)
	f.Fuzz(func(t *testing.T, raw []byte, count int) {
		if count < 0 || count > DictBlockSize {
			return
		}
		DecodeDictBlock(raw, count, nil)
	})
}

// FuzzOpenHostile overwrites part of a small valid image with fuzzer
// bytes, optionally truncating it, and opens the mutant with OpenBytes:
// the open must reject it or return a Reader whose every verified column
// decodes, and must never panic. With reseal set, the checksums are
// recomputed after the mutation, so the structural checks behind them
// (TOC bounds, column block indexes, section lengths, the statistics
// block) see the damage instead of the CRCs stopping it first.
func FuzzOpenHostile(f *testing.F) {
	img, err := Encode(testSnapshotData(f, 300))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}, uint32(0), uint32(0), false)
	f.Add([]byte{0xff}, uint32(9), uint32(0), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint32(headerSize), uint32(0), true)
	f.Add([]byte{7}, uint32(len(img)-40), uint32(0), true)
	f.Add([]byte{1, 2, 3}, uint32(len(img)/2), uint32(100), true)
	f.Fuzz(func(t *testing.T, patch []byte, off, cut uint32, reseal bool) {
		mutant := append([]byte(nil), img...)
		if int(off) < len(mutant) {
			copy(mutant[off:], patch)
		}
		if int(cut) < len(mutant) {
			mutant = mutant[:len(mutant)-int(cut)]
		}
		if reseal {
			resealImage(mutant)
		}
		r, err := OpenBytes(mutant)
		if err != nil {
			return
		}
		var buf []uint64
		cols := []*U64Col{r.DictOff(), r.perm, r.GeomIDs()}
		for comp := 0; comp < 3; comp++ {
			cols = append(cols, r.Col(comp), r.PostOff(comp), r.PostCnt(comp))
		}
		for _, col := range cols {
			for b := 0; b < col.NumBlocks(); b++ {
				buf = col.DecodeBlock(b, buf)
			}
		}
		for i := 0; i < r.NGeoms(); i++ {
			r.GeomEnv(i)
		}
	})
}

// resealImage recomputes, in place, every checksum of an image whose
// trailer still locates a plausible footer: each in-bounds section CRC,
// the file CRC and the footer CRC.
func resealImage(img []byte) {
	if len(img) < headerSize+16 {
		return
	}
	footerEnd := len(img) - 16
	footerLen := int(le32(img[footerEnd:]))
	if footerLen < 4+24+4 || footerLen > footerEnd-headerSize {
		return
	}
	footer := img[footerEnd-footerLen : footerEnd]
	body := img[:footerEnd-footerLen]
	for i := 0; i < int(le32(footer)) && 4+i*32+32 <= len(footer)-28; i++ {
		e := footer[4+i*32:]
		if off, n := le64(e[8:]), le64(e[16:]); off <= uint64(len(body)) && n <= uint64(len(body))-off {
			put32(e[24:], crc(body[off:off+n]))
		}
	}
	put32(footer[len(footer)-4:], crc(body))
	put32(img[footerEnd+4:], crc(footer))
}

func splitFuzz(raw []byte) []string {
	var out []string
	start := 0
	for i, b := range raw {
		if b == 0 {
			out = append(out, string(raw[start:i]))
			start = i + 1
		}
	}
	out = append(out, string(raw[start:]))
	return out
}
