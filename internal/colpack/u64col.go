package colpack

import (
	"fmt"
	"slices"
)

// U64Col is a frame-of-reference + bit-packed uint64 column: values
// are split into blocks of BlockSize, and each block stores
// (v - blockMin) in the minimum uniform bit width. The per-block
// min/max pair doubles as the zone map. The encoded layout is
// self-contained (one byte slice), so a column can live as one section
// of a snapshot file and be decoded block-at-a-time straight off the
// mapping:
//
//	8  bytes  n — value count
//	4  bytes  nBlocks
//	32 bytes  per block: off u64 (into the data area), min u64,
//	          max u64, width u32 (bits per value), count u32
//	…         data area: ceil(count*width/64)*8 bytes per block
type U64Col struct {
	n      int
	idx    []byte // block index region (32 bytes per block)
	data   []byte // packed block payloads
	blocks int
}

const u64ColIdxEntry = 32

// AppendU64Col encodes vals and appends the encoding to dst.
func AppendU64Col(dst []byte, vals []uint64) []byte {
	nBlocks := (len(vals) + BlockSize - 1) / BlockSize
	dst = appendU64(dst, uint64(len(vals)))
	dst = appendU32(dst, uint32(nBlocks))
	idxOff := len(dst)
	// Reserve the block index; filled as payloads are appended.
	dst = appendZeros(dst, nBlocks*u64ColIdxEntry)
	dataStart := len(dst)
	for b := 0; b < nBlocks; b++ {
		blk := vals[b*BlockSize : min((b+1)*BlockSize, len(vals))]
		minV, maxV := valueRange(blk)
		width := bitWidth(maxV - minV)
		e := dst[idxOff+b*u64ColIdxEntry:]
		put64(e[0:], uint64(len(dst)-dataStart))
		put64(e[8:], minV)
		put64(e[16:], maxV)
		put32(e[24:], uint32(width))
		put32(e[28:], uint32(len(blk)))
		dst = appendPackedBits(dst, blk, minV, width)
	}
	return dst
}

// u64ColLen is the length of AppendU64Col's encoding of vals.
func u64ColLen(vals []uint64) int {
	nBlocks := (len(vals) + BlockSize - 1) / BlockSize
	size := 12 + nBlocks*u64ColIdxEntry
	for b := 0; b < nBlocks; b++ {
		blk := vals[b*BlockSize : min((b+1)*BlockSize, len(vals))]
		minV, maxV := valueRange(blk)
		size += packedLen(len(blk), bitWidth(maxV-minV))
	}
	return size
}

func valueRange(blk []uint64) (minV, maxV uint64) {
	minV, maxV = blk[0], blk[0]
	for _, v := range blk[1:] {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	return minV, maxV
}

// packedLen is the payload length of n values packed in width bits.
func packedLen(n int, width uint) int { return (n*int(width) + 63) / 64 * 8 }

// appendZeros appends n zero bytes to dst.
func appendZeros(dst []byte, n int) []byte {
	dst = slices.Grow(dst, n)
	start := len(dst)
	dst = dst[:start+n]
	clear(dst[start:])
	return dst
}

// appendPackedBits packs (v-base) in width bits per value into
// little-endian u64 words appended to dst.
func appendPackedBits(dst []byte, vals []uint64, base uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	start := len(dst)
	dst = appendZeros(dst, packedLen(len(vals), width))
	out := dst[start:]
	bitPos := uint(0)
	for _, v := range vals {
		d := v - base
		word := bitPos >> 6
		off := bitPos & 63
		cur := le64(out[word*8:])
		put64(out[word*8:], cur|d<<off)
		if off+width > 64 {
			put64(out[(word+1)*8:], d>>(64-off))
		}
		bitPos += width
	}
	return dst
}

// OpenU64Col interprets data (one section of a mapped file) as an
// encoded column. The returned column references data; it copies
// nothing.
func OpenU64Col(data []byte) (*U64Col, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("colpack: u64 column: short header (%d bytes)", len(data))
	}
	n := le64(data)
	// Constant blocks pack to zero payload bytes, so n is bounded by
	// the block index the section can hold, not by the data volume.
	nBlocks64 := (n + BlockSize - 1) / BlockSize
	if nBlocks64 > uint64(len(data))/u64ColIdxEntry+1 || uint64(le32(data[8:])) != nBlocks64 {
		return nil, fmt.Errorf("colpack: u64 column: implausible header n=%d blocks=%d", n, le32(data[8:]))
	}
	nBlocks := int(nBlocks64)
	idxEnd := 12 + nBlocks*u64ColIdxEntry
	if idxEnd > len(data) {
		return nil, fmt.Errorf("colpack: u64 column: truncated block index")
	}
	c := &U64Col{n: int(n), idx: data[12:idxEnd], data: data[idxEnd:], blocks: nBlocks}
	// Validate every block descriptor up front so DecodeBlock never
	// reads outside the section.
	for b := 0; b < nBlocks; b++ {
		off, _, _, width, count := c.block(b)
		want := BlockSize
		if b == nBlocks-1 {
			want = c.n - b*BlockSize
		}
		if int(count) != want || width > 64 {
			return nil, fmt.Errorf("colpack: u64 column: block %d: bad descriptor (count=%d width=%d)", b, count, width)
		}
		if off > uint64(len(c.data)) {
			return nil, fmt.Errorf("colpack: u64 column: block %d: offset outside section", b)
		}
		end := off + uint64(packedLen(int(count), width))
		if end > uint64(len(c.data)) {
			return nil, fmt.Errorf("colpack: u64 column: block %d: payload outside section", b)
		}
	}
	return c, nil
}

func (c *U64Col) block(b int) (off, minV, maxV uint64, width uint, count uint32) {
	e := c.idx[b*u64ColIdxEntry:]
	return le64(e), le64(e[8:]), le64(e[16:]), uint(le32(e[24:])), le32(e[28:])
}

// Len reports the number of values in the column.
func (c *U64Col) Len() int { return c.n }

// NumBlocks reports the number of blocks.
func (c *U64Col) NumBlocks() int { return c.blocks }

// BlockRange returns block b's zone map (min and max value) and count.
func (c *U64Col) BlockRange(b int) (minV, maxV uint64, count int) {
	_, mn, mx, _, cnt := c.block(b)
	return mn, mx, int(cnt)
}

// DecodeBlock decodes block b into out (grown as needed) and returns
// the filled slice. One call is the column's unit of IO: it touches
// only that block's packed words of the mapping.
func (c *U64Col) DecodeBlock(b int, out []uint64) []uint64 {
	off, base, _, width, count := c.block(b)
	n := int(count)
	if cap(out) < n {
		out = make([]uint64, n)
	}
	out = out[:n]
	if width == 0 {
		for i := range out {
			out[i] = base
		}
		return out
	}
	src := c.data[off:]
	mask := ^uint64(0) >> (64 - width)
	bitPos := uint(0)
	for i := 0; i < n; i++ {
		word := bitPos >> 6
		sh := bitPos & 63
		v := le64(src[word*8:]) >> sh
		if sh+width > 64 {
			v |= le64(src[(word+1)*8:]) << (64 - sh)
		}
		out[i] = base + (v & mask)
		bitPos += width
	}
	return out
}

// At decodes the single value at position i straight from its block's
// packed words, without decoding the block: the access for one-off
// probes that should not populate a block cache.
func (c *U64Col) At(i int) uint64 {
	off, base, _, width, _ := c.block(i / BlockSize)
	if width == 0 {
		return base
	}
	src := c.data[off:]
	bitPos := uint(i%BlockSize) * width
	word, sh := bitPos>>6, bitPos&63
	v := le64(src[word*8:]) >> sh
	if sh+width > 64 {
		v |= le64(src[(word+1)*8:]) << (64 - sh)
	}
	return base + v&(^uint64(0)>>(64-width))
}
