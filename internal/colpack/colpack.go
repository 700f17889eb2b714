// Package colpack implements the compressed, mmap-able columnar
// snapshot format (TELPACK1) that checkpoints write: the
// query-in-place storage layer that lets a store answer queries
// straight off the on-disk snapshot without materialising columns,
// posting lists or the dictionary into heap memory first.
//
// The building blocks:
//
//   - U64Col: frame-of-reference + bit-packed uint64 columns in
//     fixed-size blocks of 4096 values, each block carrying a min/max
//     zone map so scans can skip blocks wholesale.
//   - Posting lists: sorted row ids split into roaring-style
//     containers keyed by the high 16 bits — small containers store
//     the low 16 bits as a u16 array, dense ones as an 8 KiB bitmap.
//   - Dictionary: terms front-coded (shared-prefix compressed) in id
//     order in blocks of 64.
//
// A snapshot file lays these out as independent sections behind a
// footer/TOC (see file.go), so a reader maps the file and touches only
// the blocks a query needs; the OS page cache is the buffer pool.
package colpack

import (
	"encoding/binary"
	"hash/crc32"
)

const (
	// Magic identifies a packed snapshot file; it leads the file and
	// trails it (so the footer can be located from the end).
	Magic = "TELPACK1"
	// BlockSize is the number of values per U64Col block. One block is
	// the unit of decode: a query touching one row pays for one block.
	BlockSize = 4096
	// DictBlockSize is the number of terms per front-coded dictionary
	// block (the unit of term decode).
	DictBlockSize = 64
)

func crc(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

func le64(p []byte) uint64     { return binary.LittleEndian.Uint64(p) }
func le32(p []byte) uint32     { return binary.LittleEndian.Uint32(p) }
func put64(p []byte, v uint64) { binary.LittleEndian.PutUint64(p, v) }
func put32(p []byte, v uint32) { binary.LittleEndian.PutUint32(p, v) }
func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	put64(b[:], v)
	return append(dst, b[:]...)
}
func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	put32(b[:], v)
	return append(dst, b[:]...)
}

// bitWidth returns the number of bits needed to represent v.
func bitWidth(v uint64) uint {
	n := uint(0)
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}
