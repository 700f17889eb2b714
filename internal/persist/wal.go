package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/fsx"
)

// Write-ahead log: an append-only sequence of length-prefixed,
// CRC-checked records split across segment files.
//
// Segment files are named wal-<firstseq>.log (16 hex digits) where
// firstseq is the sequence number of the first record the segment may
// hold; each starts with an 8-byte magic. A record is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// and the payload is
//
//	u64 seq | u8 op | op-specific body
//
// Sequence numbers are assigned 1, 2, 3, … across segment boundaries and
// never reused. Recovery replays records in order and treats the first
// invalid record in the final segment as the torn tail of an interrupted
// append: it is dropped and the file truncated at the last valid byte.
// An invalid record in any earlier segment cannot be a torn append (the
// log only ever grows at its end), so it is reported as corruption.

const (
	walMagic     = "TELWAL01"
	walSegPrefix = "wal-"
	walSegSuffix = ".log"

	// opAdd, opRemove and opCompact are no longer written: older data
	// directories and primaries still hold them, so they are replayed and
	// shipped. opCompact, the record of the removed Store.Compact, replays
	// as a no-op: every fold already drops removed rows.
	opAdd     byte = 1 // body: u32 count, then that many triples
	opRemove  byte = 2 // body: one triple
	opCompact byte = 3 // body: empty
	opApply   byte = 4 // body: u32 ndel, dels, u32 nins, ins — one statement

	// maxRecordBytes bounds a single record so a garbage length prefix
	// cannot drive a multi-gigabyte allocation during recovery.
	maxRecordBytes = 1 << 30
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", walSegPrefix, firstSeq, walSegSuffix)
}

// parseSeqName extracts the 16-hex-digit sequence number from a
// <prefix><seq><suffix> file name — shared by the WAL segment and
// snapshot naming schemes.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// parseSegName extracts firstseq from a segment file name.
func parseSegName(name string) (uint64, bool) {
	return parseSeqName(name, walSegPrefix, walSegSuffix)
}

// segInfo describes one on-disk segment.
type segInfo struct {
	path     string
	firstSeq uint64
	size     int64
}

// listSegments returns the WAL segments in dir sorted by firstSeq.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fs, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, e.Name()), firstSeq: fs, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// wal is the append handle. It is not internally synchronised: the
// Manager serialises access (journal hooks already run under the store's
// write lock; rotation and syncing take the Manager's mutex).
type wal struct {
	dir      string
	f        *os.File
	segStart uint64
	segBytes int64
	seq      uint64 // last assigned sequence number
	dirty    bool   // bytes written since the last fsync
	failed   bool   // a failed append could not be rolled back; see below
	scratch  []byte
}

// errWALBroken poisons the log after an append failed AND the partial
// record could not be truncated away: appending more would write a new
// record behind garbage (or reuse a sequence number already on disk),
// which recovery would misread as a torn tail and drop. Every write is
// vetoed until a restart re-truncates the segment.
var errWALBroken = fmt.Errorf("persist: wal broken by an earlier append failure; restart to recover")

// rollback removes the bytes of a failed append so the record is
// neither replayed after its mutation was vetoed nor left in front of
// the next record's bytes.
func (w *wal) rollback() {
	if ferr := faults.Eval("wal/rollback"); ferr != nil {
		w.failed = true
		return
	}
	if err := w.f.Truncate(w.segBytes); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(w.segBytes, io.SeekStart); err != nil {
		w.failed = true
	}
}

// openSegmentForAppend opens (or creates) the segment for appending,
// truncating it to validSize first — dropping a torn tail left by a
// crash mid-append.
func openSegmentForAppend(path string, validSize int64) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	size := st.Size()
	if size > validSize {
		// Drop the torn tail left by a crash mid-append.
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = validSize
	}
	if size < int64(len(walMagic)) {
		// New segment, or one whose very header was torn: (re)write it.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, 0, err
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, 0, err
		}
		size = int64(len(walMagic))
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// appendSeq writes one record under an explicit sequence number — the
// replica path, where the primary already assigned it — and reports its
// size in bytes. sync forces an fsync after the write. seq must be
// exactly w.seq+1; the caller validates continuity against the shipped
// stream before getting here.
func (w *wal) appendSeq(seq uint64, op byte, body []byte, sync bool) (int64, error) {
	if w.failed {
		return 0, errWALBroken
	}
	if ferr := faults.Eval("wal/append"); ferr != nil {
		return 0, ferr
	}
	if seq != w.seq+1 {
		return 0, fmt.Errorf("persist: wal append out of order: record %d after %d", seq, w.seq)
	}
	// Enforce the same record bound recovery enforces: a payload the
	// scanner would reject as implausible must never be acknowledged.
	// (Bulk loaders chunk their batches well below this.)
	if len(body)+9 > maxRecordBytes {
		return 0, fmt.Errorf("persist: wal record of %d bytes exceeds the %d-byte limit; split the batch", len(body)+9, maxRecordBytes)
	}
	// record = len | crc | seq | op | body, assembled in one buffer so the
	// kernel sees a single write (a torn append is then a clean prefix).
	need := 8 + 8 + 1 + len(body)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need+need/2)
	}
	rec := w.scratch[:8]
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	rec = append(rec, seqb[:]...)
	rec = append(rec, op)
	rec = append(rec, body...)
	payload := rec[8:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	if ferr := faults.Eval("wal/append-write"); ferr != nil {
		if allow, ok := faults.AsTorn(ferr); ok && allow < len(rec) {
			// Leave the torn prefix a power cut would, then recover the
			// same way a real short write does.
			w.f.Write(rec[:allow])
		}
		w.rollback()
		return 0, ferr
	}
	if _, err := w.f.Write(rec); err != nil {
		// The file may hold a partial record; truncate it back so the
		// next append does not write after garbage.
		w.rollback()
		return 0, err
	}
	if sync {
		if ferr := faults.Eval("wal/fsync"); ferr != nil {
			w.rollback()
			return 0, ferr
		}
		if err := w.f.Sync(); err != nil {
			// The record is fully written but its mutation is about to
			// be vetoed: it must not survive to be replayed, and the
			// next append must not reuse its sequence number behind it.
			w.rollback()
			return 0, err
		}
		w.dirty = false
	} else {
		w.dirty = true
	}
	w.seq = seq
	w.segBytes += int64(len(rec))
	w.scratch = rec[:0]
	return int64(len(rec)), nil
}

func (w *wal) syncIfDirty() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// rotate closes the current segment and starts a fresh one beginning at
// the next sequence number. The directory is fsynced so the new
// segment's entry is durable before any record relies on it — without
// that, power loss after a checkpoint pruned the old segments could
// evaporate the new file along with every record acknowledged into it.
func (w *wal) rotate() error {
	if w.f != nil {
		if err := w.syncIfDirty(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	start := w.seq + 1
	f, size, err := openSegmentForAppend(filepath.Join(w.dir, segName(start)), int64(len(walMagic)))
	if err != nil {
		return err
	}
	if err := fsx.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.segStart, w.segBytes = f, start, size
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	if err := w.syncIfDirty(); err != nil {
		w.f.Close()
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walRecord is one decoded record.
type walRecord struct {
	seq  uint64
	op   byte
	body []byte
}

// errTorn marks the benign end-of-log conditions scanSegment stops at.
var errTorn = fmt.Errorf("persist: torn wal record")

// scanSegment reads records from one segment, calling fn for each. It
// returns the offset just past the last valid record. A record that is
// truncated, fails its CRC, or carries a non-monotonic sequence number
// stops the scan with errTorn; the caller decides whether that is a
// legitimate torn tail (final segment) or corruption (earlier segment).
// fn errors abort the scan unchanged.
func scanSegment(path string, lastSeq uint64, fn func(walRecord) error) (validEnd int64, newLast uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, lastSeq, err
	}
	defer f.Close()
	br := newCountReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		return 0, lastSeq, fmt.Errorf("persist: %s: bad wal magic: %w", filepath.Base(path), errTorn)
	}
	validEnd = br.count
	var hdr [8]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return validEnd, lastSeq, nil // clean end
			}
			return validEnd, lastSeq, errTorn // header cut mid-way
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n < 9 || n > maxRecordBytes {
			return validEnd, lastSeq, errTorn
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return validEnd, lastSeq, errTorn
		}
		if crc32.ChecksumIEEE(body) != crc {
			return validEnd, lastSeq, errTorn
		}
		seq := binary.LittleEndian.Uint64(body[0:8])
		if seq != lastSeq+1 {
			return validEnd, lastSeq, errTorn
		}
		if err := fn(walRecord{seq: seq, op: body[8], body: body[9:]}); err != nil {
			return validEnd, lastSeq, err
		}
		lastSeq = seq
		validEnd = br.count
	}
}

// countReader is a buffered reader that tracks how many bytes have been
// consumed — scanSegment's source of valid-prefix offsets.
type countReader struct {
	r     io.Reader
	buf   []byte
	off   int
	n     int
	count int64
}

func newCountReader(r io.Reader) *countReader {
	return &countReader{r: r, buf: make([]byte, 1<<16)}
}

func (c *countReader) Read(p []byte) (int, error) {
	if c.off == c.n {
		n, err := c.r.Read(c.buf)
		if n == 0 {
			return 0, err
		}
		c.off, c.n = 0, n
	}
	n := copy(p, c.buf[c.off:c.n])
	c.off += n
	c.count += int64(n)
	return n, nil
}
