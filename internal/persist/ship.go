package persist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/colpack"
)

// WAL shipping: the primitives internal/replication builds primary/
// replica log streaming on. The primary side reads validated records
// back out of the segment files (ReadWAL) and wakes long-polling
// tailers on every append (WaitSeq); the replica side appends records
// the primary already assigned, verbatim, into its own WAL and applies
// them to its store (ApplyReplicated). Records travel in exactly the
// segment-file encoding — len | crc | (seq, op, body) — minus the
// per-segment magic, so both ends share one codec and one validator.

// ErrWALTrimmed reports that the requested resume point has been pruned
// from the primary's WAL (checkpointing deleted the segments that held
// it). The tailer cannot catch up incrementally and must re-bootstrap
// from a snapshot.
var ErrWALTrimmed = errors.New("persist: requested WAL records have been pruned; re-bootstrap from a snapshot")

// ErrTornRecord reports a record that ends mid-byte or fails its CRC —
// on a shipped stream, the footprint of a connection that died
// mid-record. The partial record must be discarded and the stream
// resumed from the last fully-validated sequence number.
var ErrTornRecord = errors.New("persist: torn wal record in stream")

// errStopRead aborts a ReadWAL scan once the byte budget is spent.
var errStopRead = errors.New("persist: read budget reached")

// LastSeq reports the sequence number of the newest DURABLE record in
// the WAL — under group commit, records that have been assigned a
// sequence number but whose batch has not yet hit the disk are not
// counted. Replication resume cursors and checkpoint labels both key on
// this watermark, so a replica can never observe (and a snapshot can
// never claim to cover) a record the primary might still roll back.
func (m *Manager) LastSeq() uint64 { return m.seq.Load() }

// SnapshotSeq reports the WAL sequence the newest durable snapshot
// covers (0 when none exists).
func (m *Manager) SnapshotSeq() uint64 { return m.ckptSeq.Load() }

// notifyTail wakes every WaitSeq long-poll; called after each append.
func (m *Manager) notifyTail() {
	m.tailMu.Lock()
	close(m.tailCh)
	m.tailCh = make(chan struct{})
	m.tailMu.Unlock()
}

// WaitSeq blocks until the WAL holds a record newer than after (or ctx
// expires) and returns the newest sequence number either way. It is the
// long-poll primitive behind /replication/v1/tail: a caught-up replica
// parks here instead of busy-polling.
func (m *Manager) WaitSeq(ctx context.Context, after uint64) uint64 {
	for {
		if s := m.seq.Load(); s > after {
			return s
		}
		m.tailMu.Lock()
		ch := m.tailCh
		m.tailMu.Unlock()
		// Re-check after capturing the channel: an append between the
		// first check and the capture would otherwise be slept through.
		if s := m.seq.Load(); s > after {
			return s
		}
		select {
		case <-ctx.Done():
			return m.seq.Load()
		case <-ch:
		}
	}
}

// ReadWAL streams validated records with sequence numbers in
// (fromSeq, ∞) to emit, stopping early once roughly maxBytes of record
// payload have been emitted (0 = unlimited). It returns the last
// sequence number emitted. The body slice passed to emit is reused
// between calls and must not be retained.
//
// A torn record at the live tail (an append in flight, or the remnant
// of a crash) ends the stream benignly; the records before it are
// intact and the tailer simply asks again. ErrWALTrimmed means fromSeq
// predates the oldest retained segment — the tailer missed records that
// checkpointing has since pruned and must re-bootstrap.
func (m *Manager) ReadWAL(fromSeq uint64, maxBytes int64, emit func(seq uint64, op byte, body []byte) error) (uint64, error) {
	// Capture the durable watermark once: the live segment may already
	// hold the bytes of a group-commit batch whose fsync has not returned
	// (or will fail and be rolled back). Emitting past the watermark
	// would let a replica apply a record the primary never acked.
	durable := m.seq.Load()
	if fromSeq >= durable {
		return fromSeq, nil
	}
	segs, err := listSegments(m.opts.Dir)
	if err != nil {
		return fromSeq, err
	}
	if len(segs) == 0 {
		return fromSeq, nil
	}
	if segs[0].firstSeq > fromSeq+1 {
		return fromSeq, ErrWALTrimmed
	}
	// Start at the newest segment that can contain fromSeq+1.
	start := 0
	for i, s := range segs {
		if s.firstSeq <= fromSeq+1 {
			start = i
		}
	}
	last := fromSeq
	var sent int64
	for i := start; i < len(segs); i++ {
		seg := segs[i]
		_, _, err := scanSegment(seg.path, seg.firstSeq-1, func(rec walRecord) error {
			if rec.seq <= fromSeq {
				return nil
			}
			if rec.seq > durable {
				return errStopRead
			}
			if err := emit(rec.seq, rec.op, rec.body); err != nil {
				return err
			}
			last = rec.seq
			sent += int64(len(rec.body)) + 17
			if maxBytes > 0 && sent >= maxBytes {
				return errStopRead
			}
			return nil
		})
		switch {
		case err == nil:
		case errors.Is(err, errStopRead):
			return last, nil
		case errors.Is(err, errTorn):
			if i == len(segs)-1 {
				// Live tail: a record may be mid-append right now, or a
				// crash left a torn tail recovery has not yet truncated.
				// Everything before it validated; stop cleanly.
				return last, nil
			}
			return last, fmt.Errorf("persist: wal corruption inside non-final segment %s", filepath.Base(seg.path))
		case os.IsNotExist(err):
			// A checkpoint pruned this segment between listing and
			// opening. The records it held are covered by a newer
			// snapshot; the tailer should retry (and may then get
			// ErrWALTrimmed and re-bootstrap).
			return last, ErrWALTrimmed
		default:
			return last, err
		}
	}
	return last, nil
}

// ApplyReplicated installs one record shipped from a primary: the
// mutation is applied to the store and the record appended to the local
// WAL under the exact sequence number the primary assigned, keeping the
// two logs byte-compatible and the resume cursor (LastSeq) aligned with
// the primary's numbering.
//
// Note the order — apply FIRST, then append — which is deliberately the
// reverse of the primary's write-ahead discipline. A concurrent
// checkpoint captures (seq, store) and labels the snapshot with seq; if
// the WAL could run ahead of the store, a snapshot could claim to cover
// a record whose mutation it does not contain, and recovery would skip
// that record forever. With apply-first the snapshot label only ever
// lags the state, and replaying an already-contained record is
// idempotent (Apply is made of set operations). Losing the not-yet-
// appended record in a crash costs nothing: the replica resumes from
// its WAL position and the primary re-ships it.
//
// The caller (the replica's single tail loop) must present records in
// sequence order; a gap or a duplicate fails with an out-of-order error
// and no mutation is applied twice (the WAL append rejects it, and the
// re-applied mutation was idempotent).
func (m *Manager) ApplyReplicated(seq uint64, op byte, body []byte) error {
	if seq != m.seq.Load()+1 {
		return fmt.Errorf("persist: replicated record %d out of order (local wal at %d)", seq, m.seq.Load())
	}
	if err := m.applyRecord(m.store, walRecord{seq: seq, op: op, body: body}); err != nil {
		return err
	}
	m.store.SetAppliedSeq(seq)
	m.walMu.Lock()
	n, err := m.w.appendSeq(seq, op, body, m.opts.SyncMode == SyncAlways)
	if err == nil {
		m.seq.Store(seq)
		// Keep the group sequencer aligned in case this manager is ever
		// promoted and starts assigning its own numbers.
		m.group.mu.Lock()
		if seq > m.group.nextSeq {
			m.group.nextSeq = seq
		}
		m.group.mu.Unlock()
	}
	if m.w.failed {
		m.brokenFlag.Store(true)
	}
	m.walMu.Unlock()
	if err != nil {
		return err
	}
	m.notifyTail()
	live := m.walLive.Add(n)
	if m.opts.CheckpointBytes > 0 && live >= m.opts.CheckpointBytes && m.seq.Load() > m.ckptSeq.Load() {
		select {
		case m.ckptCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// NewestSnapshot reports the newest snapshot file on disk and the WAL
// sequence it covers; ok is false when none exists. The file may turn
// out corrupt — consumers validate after transfer (VerifySnapshot).
func (m *Manager) NewestSnapshot() (path string, seq uint64, ok bool) {
	snaps, err := listSnapshots(m.opts.Dir)
	if err != nil || len(snaps) == 0 {
		return "", 0, false
	}
	s, parsed := parseSnapName(filepath.Base(snaps[0]))
	if !parsed {
		return "", 0, false
	}
	return snaps[0], s, true
}

// Segments lists the live WAL segments (first sequence number and size)
// for diagnostics and the /replication/v1/segments endpoint.
func (m *Manager) Segments() []SegmentInfo {
	segs, err := listSegments(m.opts.Dir)
	if err != nil {
		return nil
	}
	out := make([]SegmentInfo, len(segs))
	for i, s := range segs {
		out[i] = SegmentInfo{FirstSeq: s.firstSeq, Size: s.size}
	}
	return out
}

// SegmentInfo describes one on-disk WAL segment.
type SegmentInfo struct {
	FirstSeq uint64 `json:"first_seq"`
	Size     int64  `json:"size"`
}

// HasState reports whether dir already holds persisted state (a
// snapshot or WAL segment). A replica uses it to decide between
// resuming from its own directory and bootstrapping from the primary.
func HasState(dir string) (bool, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(snaps) > 0 {
		return true, nil
	}
	segs, err := listSegments(dir)
	if err != nil {
		return false, err
	}
	return len(segs) > 0, nil
}

// SnapshotFileName returns the canonical file name for a snapshot
// covering seq — used by a replica to install a downloaded snapshot
// where recovery will find it.
func SnapshotFileName(seq uint64) string { return snapName(seq) }

// VerifySnapshot checks a packed snapshot file without restoring it
// into a store — footer, file and section CRCs, block indexes — and
// returns the WAL sequence it covers. A replica runs this over a freshly
// downloaded snapshot before trusting it.
func VerifySnapshot(path string) (uint64, error) {
	return colpack.Verify(path)
}

// Record wire codec -----------------------------------------------------------

// AppendRecord appends the wire encoding of one WAL record to dst —
// identical to the segment-file encoding: u32 payload length, u32
// CRC-32 (IEEE) of the payload, then the payload (u64 seq, u8 op, body).
func AppendRecord(dst []byte, seq uint64, op byte, body []byte) []byte {
	payloadLen := 8 + 1 + len(body)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payloadLen))
	start := len(dst) + 8
	dst = append(dst, hdr[:]...)
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	dst = append(dst, seqb[:]...)
	dst = append(dst, op)
	dst = append(dst, body...)
	binary.LittleEndian.PutUint32(dst[start-4:start], crc32.ChecksumIEEE(dst[start:]))
	return dst
}

// RecordScanner decodes a shipped record stream (the /tail response
// body), validating each record's CRC and sequence continuity. A stream
// that ends mid-record — the sender died — yields ErrTornRecord so the
// caller can discard the fragment and resume from the last good
// sequence number.
type RecordScanner struct {
	r    io.Reader
	last uint64
	body []byte
}

// NewRecordScanner scans records from r; the first record must carry
// sequence number after+1.
func NewRecordScanner(r io.Reader, after uint64) *RecordScanner {
	return &RecordScanner{r: r, last: after}
}

// Next returns the next validated record, io.EOF at a clean stream end,
// or ErrTornRecord for a trailing fragment. The body slice is reused by
// subsequent calls.
func (s *RecordScanner) Next() (seq uint64, op byte, body []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, io.EOF
		}
		return 0, 0, nil, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if n < 9 || n > maxRecordBytes {
		return 0, 0, nil, ErrTornRecord
	}
	if uint32(cap(s.body)) < n {
		s.body = make([]byte, n)
	}
	s.body = s.body[:n]
	if _, err := io.ReadFull(s.r, s.body); err != nil {
		return 0, 0, nil, ErrTornRecord
	}
	if crc32.ChecksumIEEE(s.body) != crc {
		return 0, 0, nil, ErrTornRecord
	}
	seq = binary.LittleEndian.Uint64(s.body[0:8])
	if seq != s.last+1 {
		return 0, 0, nil, fmt.Errorf("persist: shipped record %d out of order (expected %d)", seq, s.last+1)
	}
	s.last = seq
	return seq, s.body[8], s.body[9:], nil
}
