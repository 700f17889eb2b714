package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/colpack"
	"repro/internal/faults"
	"repro/internal/fsx"
	"repro/internal/rdf"
	"repro/internal/strabon"
)

// Snapshots are written in one format and read in two, distinguished by
// the leading 8-byte magic (both keep the WAL sequence at byte offset 8,
// so tooling that sniffs (magic, seq) works on either):
//
//   - packed ("TELPACK1"): the compressed, mmap-able columnar format of
//     internal/colpack, the only format checkpoints write. Recovery opens
//     it read-only via mmap and the store answers queries IN PLACE — no
//     column, posting-list or dictionary materialisation — so
//     restart-to-first-query is independent of dataset size and the
//     on-disk bytes double as the working representation for
//     larger-than-RAM datasets.
//   - raw ("TELSNAP1"): the PR 4 columnar dump below. Nothing writes it
//     any more; the reader stays so a directory (or a primary's
//     bootstrap snapshot) from before PR 12 still loads, and the next
//     checkpoint rewrites it as packed.
//
// Raw binary columnar snapshot: layout of snap-<seq>.snap (16 hex
// digits, seq = the last WAL sequence number the snapshot covers), all
// integers little-endian:
//
//	8  bytes  magic "TELSNAP1"
//	8  bytes  seq
//	8  bytes  store version at capture
//	8  bytes  d — dictionary section length in bytes
//	d  bytes  dictionary (rdf.Dictionary.WriteTo)
//	8  bytes  n — number of triples
//	8n bytes  S column   (dictionary ids)
//	8n bytes  P column
//	8n bytes  O column
//	8  bytes  g — number of cached geometries
//	8g bytes  spatial literal ids, ascending
//	4  bytes  CRC-32 (IEEE) of every preceding byte
//
// Snapshot files are produced via write-temp/fsync/rename
// (fsx.WriteFileAtomic), so a crash during checkpointing leaves at worst
// a stray .tmp that recovery ignores. Whole-file checksums let recovery
// reject a bit-flipped or short snapshot and fall back to the previous
// one.

const (
	snapMagic     = "TELSNAP1"
	snapPrefix    = "snap-"
	snapSuffix    = ".snap"
	colChunkTerms = 4096 // ids buffered per column read
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	return parseSeqName(name, snapPrefix, snapSuffix)
}

// listSnapshots returns snapshot files in dir sorted newest (highest
// seq) first.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, snap{name: e.Name(), seq: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = filepath.Join(dir, s.name)
	}
	return out, nil
}

// crcReader tees everything read through it into a CRC-32.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readColumn(r io.Reader, n uint64) ([]uint64, error) {
	col := make([]uint64, n)
	buf := make([]byte, 8*colChunkTerms)
	for off := uint64(0); off < n; off += colChunkTerms {
		end := off + colChunkTerms
		if end > n {
			end = n
		}
		b := buf[:8*(end-off)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := range col[off:end] {
			col[off+uint64(i)] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return col, nil
}

// writeSnapshot atomically writes sn (covering WAL records through seq)
// to dir in the packed colpack format and returns the file path.
func writeSnapshot(dir string, sn *strabon.Snapshot, seq uint64) (string, error) {
	if err := faults.Eval("snapshot/write"); err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapName(seq))
	err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		return colpack.Write(w, sn.PackData(seq))
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// sniffSnapshotFormat reads a snapshot file's leading magic and reports
// whether it is the legacy raw format (false: packed).
func sniffSnapshotFormat(path string) (raw bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false, fmt.Errorf("persist: snapshot %s: too short", filepath.Base(path))
	}
	switch string(magic[:]) {
	case colpack.Magic:
		return false, nil
	case snapMagic:
		return true, nil
	}
	return false, fmt.Errorf("persist: snapshot %s: bad magic", filepath.Base(path))
}

// readSnapshot loads and validates one snapshot file of either format
// (dispatching on the leading magic), returning the restored store, the
// WAL sequence number it covers and whether the file was raw. A packed
// snapshot restores as a mapped store: the file is verified, mmap-ed and
// served in place, so this returns in O(verify) regardless of dataset
// size.
func readSnapshot(path string) (st *strabon.Store, seq uint64, raw bool, err error) {
	raw, err = sniffSnapshotFormat(path)
	if err != nil {
		return nil, 0, false, err
	}
	if raw {
		st, seq, err = readRawSnapshot(path)
	} else {
		st, seq, err = readPackedSnapshot(path)
	}
	return st, seq, raw, err
}

func readPackedSnapshot(path string) (*strabon.Store, uint64, error) {
	r, err := colpack.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", filepath.Base(path), err)
	}
	st, err := strabon.RestorePacked(r)
	if err != nil {
		r.Close()
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", filepath.Base(path), err)
	}
	return st, r.Seq(), nil
}

func readRawSnapshot(path string) (*strabon.Store, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if fi.Size() < int64(len(snapMagic))+8+8+4 {
		return nil, 0, fmt.Errorf("persist: snapshot %s: too short", filepath.Base(path))
	}
	br := bufio.NewReaderSize(f, 1<<16)
	cr := &crcReader{r: br, h: crc32.NewIEEE()}
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(cr, magic); err != nil || string(magic) != snapMagic {
		return nil, 0, fmt.Errorf("persist: snapshot %s: bad magic", filepath.Base(path))
	}
	seq, err := readU64(cr)
	if err != nil {
		return nil, 0, err
	}
	version, err := readU64(cr)
	if err != nil {
		return nil, 0, err
	}
	dictLen, err := readU64(cr)
	if err != nil {
		return nil, 0, err
	}
	if dictLen > uint64(fi.Size()) {
		return nil, 0, fmt.Errorf("persist: snapshot %s: implausible dictionary length %d", filepath.Base(path), dictLen)
	}
	dictBytes := make([]byte, dictLen)
	if _, err := io.ReadFull(cr, dictBytes); err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: dictionary: %w", filepath.Base(path), err)
	}
	dict, err := rdf.ReadDictionary(bytes.NewReader(dictBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: dictionary: %w", filepath.Base(path), err)
	}
	n, err := readU64(cr)
	if err != nil {
		return nil, 0, err
	}
	// Sanity-bound n against the file size before allocating 3*8n bytes.
	if n > uint64(fi.Size())/24 {
		return nil, 0, fmt.Errorf("persist: snapshot %s: implausible triple count %d", filepath.Base(path), n)
	}
	cols := make([][]uint64, 3)
	for i := range cols {
		if cols[i], err = readColumn(cr, n); err != nil {
			return nil, 0, fmt.Errorf("persist: snapshot %s: column %d: %w", filepath.Base(path), i, err)
		}
	}
	g, err := readU64(cr)
	if err != nil {
		return nil, 0, err
	}
	if g > uint64(fi.Size())/8 {
		return nil, 0, fmt.Errorf("persist: snapshot %s: implausible geometry count %d", filepath.Base(path), g)
	}
	geomIDs, err := readColumn(cr, g)
	if err != nil {
		return nil, 0, err
	}
	sum := cr.h.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: missing CRC trailer", filepath.Base(path))
	}
	if binary.LittleEndian.Uint32(trailer[:]) != sum {
		return nil, 0, fmt.Errorf("persist: snapshot %s: CRC mismatch", filepath.Base(path))
	}
	st, err := strabon.RestoreColumns(dict, cols[0], cols[1], cols[2], geomIDs, version)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", filepath.Base(path), err)
	}
	return st, seq, nil
}
