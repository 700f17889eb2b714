package colpack

import (
	"fmt"
	"math/bits"
)

// Posting lists — the per-term row-id lists behind MatchRows — are
// stored roaring-style: a sorted []int32 is split into containers by
// the high 16 bits of the row id (keys are therefore ascending, the
// delta encoding of the chunk space), and each container stores the
// low 16 bits either as a sorted u16 array (sparse) or as an 8 KiB
// bitmap (dense):
//
//	2 bytes  key — row id high 16 bits
//	2 bytes  card-1 — container cardinality minus one (1…65536)
//	…        card <= arrayCutoff: card * u16 sorted low bits
//	         otherwise:           8192-byte bitmap
//
// Containers abut with no count prefix: the decoder knows the total
// cardinality from the snapshot's posting-count column and consumes
// containers until it is reached.

const (
	arrayCutoff  = 4096
	bitmapBytes  = 8192
	containerHdr = 4
)

// AppendPostings encodes a sorted, non-empty row list and appends the
// encoding to dst.
func AppendPostings(dst []byte, rows []int32) []byte {
	i := 0
	for i < len(rows) {
		key := uint32(rows[i]) >> 16
		j := i
		for j < len(rows) && uint32(rows[j])>>16 == key {
			j++
		}
		card := j - i
		dst = append(dst, byte(key), byte(key>>8), byte(card-1), byte((card-1)>>8))
		if card <= arrayCutoff {
			for _, r := range rows[i:j] {
				lo := uint16(uint32(r))
				dst = append(dst, byte(lo), byte(lo>>8))
			}
		} else {
			start := len(dst)
			for k := 0; k < bitmapBytes; k++ {
				dst = append(dst, 0)
			}
			bm := dst[start:]
			for _, r := range rows[i:j] {
				lo := uint32(r) & 0xffff
				bm[lo>>3] |= 1 << (lo & 7)
			}
		}
		i = j
	}
	return dst
}

// postingsLen is the length of AppendPostings' encoding of rows.
func postingsLen(rows []int32) int {
	size := 0
	for i := 0; i < len(rows); {
		key := uint32(rows[i]) >> 16
		j := i
		for j < len(rows) && uint32(rows[j])>>16 == key {
			j++
		}
		if card := j - i; card <= arrayCutoff {
			size += containerHdr + 2*card
		} else {
			size += containerHdr + bitmapBytes
		}
		i = j
	}
	return size
}

// DecodePostings decodes count row ids from data (the byte range one
// term's containers occupy) into out, which is grown as needed and
// returned. It fails on malformed container headers rather than read
// outside data — the backstop behind the whole-file CRC.
func DecodePostings(data []byte, count int, out []int32) ([]int32, error) {
	if cap(out) < count {
		out = make([]int32, 0, count)
	}
	out = out[:0]
	for len(out) < count {
		if len(data) < containerHdr {
			return nil, fmt.Errorf("colpack: postings: truncated container header (%d rows missing)", count-len(out))
		}
		key := uint32(data[0]) | uint32(data[1])<<8
		card := int(uint32(data[2])|uint32(data[3])<<8) + 1
		data = data[containerHdr:]
		hi := int32(key << 16)
		if card > count-len(out) {
			return nil, fmt.Errorf("colpack: postings: container cardinality %d exceeds remaining count %d", card, count-len(out))
		}
		if card <= arrayCutoff {
			if len(data) < 2*card {
				return nil, fmt.Errorf("colpack: postings: truncated array container")
			}
			for k := 0; k < card; k++ {
				lo := uint32(data[2*k]) | uint32(data[2*k+1])<<8
				out = append(out, hi|int32(lo))
			}
			data = data[2*card:]
		} else {
			if len(data) < bitmapBytes {
				return nil, fmt.Errorf("colpack: postings: truncated bitmap container")
			}
			found := 0
			for w := 0; w < bitmapBytes; w += 8 {
				word := le64(data[w:])
				for word != 0 {
					bit := bits.TrailingZeros64(word)
					out = append(out, hi|int32(w<<3+bit))
					word &= word - 1
					found++
				}
			}
			if found != card {
				return nil, fmt.Errorf("colpack: postings: bitmap cardinality %d != header %d", found, card)
			}
			data = data[bitmapBytes:]
		}
	}
	return out, nil
}
