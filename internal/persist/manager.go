// Package persist is the durability subsystem behind strabon.Store: an
// append-only write-ahead log, binary columnar snapshots, crash
// recovery, and background checkpointing.
//
// The contract is write-ahead with group commit: the Manager installs
// itself as the store's Journal, so every mutation — one Store.Apply or
// Store.Update statement (Add, AddAll, Remove, a SPARQL update, an
// /ingest chunk) — encodes one length-prefixed, CRC-checked record and
// enqueues it (under the store's write lock, strictly before the
// in-memory structures change) into the forming commit batch, receiving
// a strabon.Commit ticket.
// The caller applies the mutation, drops the lock, and awaits the
// ticket: a committer goroutine coalesces everything enqueued since
// the previous flush into ONE segment write and ONE fsync (see
// group.go), so no mutation is acknowledged before its record is
// durable per the sync policy, yet K concurrent writers share a single
// flush instead of paying K fsyncs in series. Checkpoints run off the
// write path: the store folds into a new base image (strabon.Store.Fold),
// whose bytes are written to a temp file, fsynced and atomically
// renamed, and only then are the WAL segments it covers deleted.
// Recovery loads the newest snapshot that validates, replays the WAL
// tail past it, drops a torn final record, and reopens the log for
// appending.
//
// A crash — SIGKILL included — therefore loses at most the final
// unflushed batch, none of whose writers were acknowledged: everything
// acknowledged before it is either in a snapshot or replayable from
// the log.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
	"repro/internal/rdf"
	"repro/internal/strabon"
)

// SyncMode selects when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs after every append: an acknowledged update
	// survives power loss. This is the default.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs on a timer (Options.SyncEvery): an
	// acknowledged update survives process death (the write(2) has
	// happened) but the last interval may be lost on power failure.
	SyncInterval
	// SyncNone never fsyncs the WAL; the OS flushes at its leisure.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// Options configures Open. The zero value of each field selects the
// documented default.
type Options struct {
	// Dir is the data directory; created if absent. Required.
	Dir string
	// SyncMode is the WAL fsync policy (default SyncAlways).
	SyncMode SyncMode
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// CheckpointBytes triggers a background checkpoint when the live WAL
	// exceeds this size (default 64 MiB; negative disables).
	CheckpointBytes int64
	// CheckpointEvery triggers a background checkpoint on a timer
	// (default 0: disabled).
	CheckpointEvery time.Duration
	// KeepSnapshots is how many snapshot generations survive a
	// checkpoint (default 2: the new one plus one fallback).
	KeepSnapshots int
	// NoCheckpointOnClose skips the final checkpoint in Close — restart
	// then replays the WAL instead (tests use this to exercise replay).
	NoCheckpointOnClose bool
	// NoJournal leaves the recovered store's journal detached: the
	// Manager still owns the WAL, snapshots and checkpointing, but store
	// mutations are NOT logged through it. This is the replica mode —
	// records arrive pre-assigned from the primary via ApplyReplicated
	// (which appends them verbatim and then applies them), and attaching
	// the journal too would double-log every replayed mutation.
	NoJournal bool
	// Logf receives recovery and background-error diagnostics
	// (default: discard).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 64 << 20
	}
	if opts.KeepSnapshots <= 0 {
		opts.KeepSnapshots = 2
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts
}

// Stats is the durability telemetry surfaced at /stats.
type Stats struct {
	Dir                string
	LastSeq            uint64 // last DURABLE WAL sequence number (the ship/checkpoint watermark)
	WALBytes           int64  // bytes across live WAL segments
	WALSegments        int
	Snapshots          int
	LastCheckpointSeq  uint64
	LastCheckpointAt   time.Time // zero until the first checkpoint this process
	LastCheckpointTook time.Duration
	RecoveryTook       time.Duration
	ReplayedRecords    uint64 // WAL records applied during recovery
	JournalErr         error  // first append failure; writes are being vetoed

	// Persistence-format telemetry (the /stats persistence block).
	SnapshotBytes int64  // on-disk size of the newest snapshot (0: none)
	StoreMode     string // "mapped" (base is the booted file) or "image" (base is a fold)
	ResidentBytes int64  // estimated heap bytes of the store's primary state

	// Group-commit telemetry (see group.go). FsyncsSaved is how many
	// fsyncs batching avoided versus the one-fsync-per-record policy
	// (records - fsyncs, SyncAlways only); TicketWaitMean is the mean
	// enqueue-to-durable latency across all committed records;
	// GroupBatchHist[i] counts batches of 2^i..2^(i+1)-1 records (the
	// last bucket is open-ended).
	GroupBatches   uint64
	GroupRecords   uint64
	GroupFsyncs    uint64
	FsyncsSaved    uint64
	TicketWaitMean time.Duration
	GroupBatchHist [groupHistBuckets]uint64
}

// Manager owns a data directory's WAL and snapshots. It implements
// strabon.Journal and attaches itself to the recovered store.
type Manager struct {
	opts  Options
	store *strabon.Store

	// walMu guards the wal handle and all of its file I/O: batch
	// flushes, the synchronous replica appends, rotation, sync, close. It
	// is deliberately NOT taken by enqueue (group.go), so writers
	// assigning sequence numbers under the store lock never wait behind
	// an fsync.
	walMu sync.Mutex
	w     *wal

	// group is the group-commit state; brokenFlag mirrors w.failed so
	// the per-update Broken() check and the enqueue fast path read one
	// atomic instead of contending on walMu mid-fsync.
	group      groupState
	brokenFlag atomic.Bool

	seq      atomic.Uint64 // last DURABLE WAL seq (published after flush)
	walLive  atomic.Int64  // bytes across live segments
	ckptSeq  atomic.Uint64 // seq covered by the newest durable snapshot
	hasCkpt  atomic.Bool   // a snapshot exists on disk
	ckptAt   atomic.Int64  // unix ms of the last checkpoint this process
	ckptTook atomic.Int64  // ms
	ckptMu   sync.Mutex    // serialises checkpoints

	recoveryTook time.Duration
	replayed     uint64

	// tailCh is closed and replaced on every append so WAL-shipping
	// long-polls (WaitSeq) wake without polling; guarded by tailMu.
	tailMu sync.Mutex
	tailCh chan struct{}

	ckptCh    chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// encBuf is LogApply's reused record encoding buffer; the store's
	// write lock serialises LogApply calls.
	encBuf []byte
}

// Open recovers the store persisted in opts.Dir (an empty or absent
// directory yields an empty store), attaches the write-ahead journal,
// and starts the background sync/checkpoint loops. The returned store
// is ready for concurrent use; every subsequent mutation is durable per
// the configured SyncMode. Callers must Close the Manager to flush and
// (by default) checkpoint on shutdown.
func Open(o Options) (*Manager, *strabon.Store, error) {
	if o.Dir == "" {
		return nil, nil, errors.New("persist: Options.Dir is required")
	}
	opts := o.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	m := &Manager{
		opts:   opts,
		ckptCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		tailCh: make(chan struct{}),
	}
	start := time.Now()

	// 1. Newest snapshot that validates; corrupt ones are skipped so a
	// half-written or bit-flipped file degrades to the previous
	// generation, not to data loss. A raw (TELSNAP1) one is refused
	// before anything on disk changes.
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var st *strabon.Store
	var snapSeq uint64
	for _, p := range snaps {
		s, seq, err := readSnapshot(p)
		if errors.Is(err, errRawSnapshot) {
			return nil, nil, err
		}
		if err != nil {
			opts.Logf("persist: skipping snapshot %s: %v", filepath.Base(p), err)
			continue
		}
		st, snapSeq = s, seq
		break
	}
	if st == nil {
		st = strabon.NewStore()
	}

	// 2. Replay the WAL tail past the snapshot into the store's delta over
	// it; nothing decodes the snapshot. Records the snapshot already
	// covers are validated but re-applied only logically (an Apply's
	// deletions and insertions are set operations, so re-application of a
	// conservatively-covered suffix is a no-op).
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) > 0 && segs[0].firstSeq > snapSeq+1 {
		// The WAL was pruned against a snapshot we failed to load (all
		// retained generations corrupt or deleted): the records bridging
		// the snapshot to the surviving log are gone. Booting anyway
		// would silently serve — and then re-checkpoint — a store
		// missing most of its data; refuse instead and leave the
		// evidence on disk for the operator.
		return nil, nil, fmt.Errorf(
			"persist: wal starts at record %d but the newest loadable snapshot covers only %d; records %d..%d are unrecoverable (corrupt or deleted snapshots?)",
			segs[0].firstSeq, snapSeq, snapSeq+1, segs[0].firstSeq-1)
	}
	scanLast := uint64(0)
	if len(segs) > 0 {
		scanLast = segs[0].firstSeq - 1
	}
	var appendSeg segInfo
	var appendValid int64
	haveAppendSeg := false
	for i, seg := range segs {
		if i > 0 && seg.firstSeq != scanLast+1 {
			return nil, nil, fmt.Errorf("persist: wal gap: segment %s starts at %d, expected %d",
				filepath.Base(seg.path), seg.firstSeq, scanLast+1)
		}
		validEnd, newLast, err := scanSegment(seg.path, scanLast, func(rec walRecord) error {
			if rec.seq <= snapSeq {
				return nil
			}
			if err := m.applyRecord(st, rec); err != nil {
				return err
			}
			m.replayed++
			return nil
		})
		scanLast = newLast
		switch {
		case err == nil:
		case errors.Is(err, errTorn):
			if i != len(segs)-1 {
				return nil, nil, fmt.Errorf("persist: wal corruption inside non-final segment %s", filepath.Base(seg.path))
			}
			opts.Logf("persist: dropping torn wal tail of %s at offset %d", filepath.Base(seg.path), validEnd)
		default:
			return nil, nil, err
		}
		if i == len(segs)-1 {
			appendSeg, appendValid, haveAppendSeg = seg, validEnd, true
		}
	}
	lastSeq := scanLast
	if snapSeq > lastSeq {
		lastSeq = snapSeq
	}

	// 3. Reopen the log for appending. Normally that means truncating
	// the final segment's torn tail (if any) and continuing in place.
	// When the snapshot is ahead of every surviving WAL record (the log
	// was lost or manually cleared), the stale segments are removed and
	// a fresh one started so sequence numbers stay contiguous.
	m.w = &wal{dir: opts.Dir, seq: lastSeq}
	if haveAppendSeg && snapSeq <= scanLast {
		f, size, err := openSegmentForAppend(appendSeg.path, appendValid)
		if err != nil {
			return nil, nil, err
		}
		m.w.f, m.w.segStart, m.w.segBytes = f, appendSeg.firstSeq, size
	} else {
		for _, seg := range segs {
			os.Remove(seg.path)
		}
		if err := m.w.rotate(); err != nil {
			return nil, nil, err
		}
	}
	m.seq.Store(lastSeq)
	m.group.nextSeq = lastSeq
	m.refreshWALBytes()
	if len(snaps) > 0 {
		m.hasCkpt.Store(true)
		m.ckptSeq.Store(snapSeq)
	}
	m.recoveryTook = time.Since(start)

	// 4. Go live: journal future writes, run the background loops. The
	// applied-seq watermark is seeded with everything recovery installed
	// (snapshot plus replayed tail).
	m.store = st
	st.SetAppliedSeq(lastSeq)
	if !opts.NoJournal {
		st.SetJournal(m)
	}
	m.wg.Add(2)
	go m.background()
	go m.committer()
	return m, st, nil
}

// applyRecord replays one WAL record into the store through Apply
// (journal not yet attached, so nothing is re-logged). A record is
// decoded whole before anything is applied, so a malformed one changes
// nothing.
func (m *Manager) applyRecord(st *strabon.Store, rec walRecord) error {
	var dels, ins []rdf.Triple
	var err error
	switch rec.op {
	case opApply:
		var rest []byte
		if dels, rest, err = readTriples(rec.body); err == nil {
			ins, rest, err = readTriples(rest)
		}
		if err == nil && len(rest) > 0 {
			err = fmt.Errorf("persist: %d trailing bytes", len(rest))
		}
	case opAdd:
		ins, _, err = readTriples(rec.body)
	case opRemove:
		var t rdf.Triple
		t, _, err = readTriple(rec.body)
		dels = []rdf.Triple{t}
	case opCompact:
		return nil
	default:
		return fmt.Errorf("persist: wal record %d: unknown op %d", rec.seq, rec.op)
	}
	if err == nil {
		_, err = st.Apply(dels, ins)
	}
	if err != nil {
		return fmt.Errorf("persist: wal record %d (op %d): %w", rec.seq, rec.op, err)
	}
	return nil
}

// LogApply implements strabon.Journal: the statement becomes one opApply
// record.
func (m *Manager) LogApply(dels, ins []rdf.Triple) (strabon.Commit, error) {
	b := appendTriples(appendTriples(m.encBuf[:0], dels), ins)
	// Steady-state records are a triple or two; don't let one bulk-load
	// batch pin its multi-megabyte encode buffer for the process
	// lifetime. (The group enqueue copies b into the batch buffer, so
	// reusing it immediately is safe.)
	if cap(b) <= 1<<20 {
		m.encBuf = b[:0]
	} else {
		m.encBuf = nil
	}
	return m.enqueue(opApply, b)
}

// LogAdd journals an insert-only statement: LogApply(nil, triples).
//
//lint:allow unreachable(bench/layers.go times the journal append with it)
func (m *Manager) LogAdd(triples []rdf.Triple) (strabon.Commit, error) {
	return m.LogApply(nil, triples)
}

// Broken reports the WAL's latched unrecoverable state: non-nil means
// either a failed append could not be rolled back or a group-commit
// batch failed after its mutations were applied; every further write
// will be vetoed, and only a restart (whose recovery re-truncates the
// segment) clears it. The endpoint's degraded read-only mode keys on
// this — reads keep serving off the in-memory store, writes 503. The
// check is a single atomic load so per-update health checks never
// queue behind an in-flight fsync.
func (m *Manager) Broken() error {
	if m.brokenFlag.Load() {
		return errWALBroken
	}
	return nil
}

// SyncWAL forces buffered WAL bytes to stable storage (a no-op under
// SyncAlways).
func (m *Manager) SyncWAL() error {
	m.walMu.Lock()
	defer m.walMu.Unlock()
	return m.w.syncIfDirty()
}

// Checkpoint writes a snapshot of the current store state and prunes the
// WAL segments and older snapshots it supersedes. It runs off the write
// path: writers continue appending while the snapshot file is produced.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	// A broken WAL means the in-memory store may hold applied mutations
	// the log does not (a group-commit batch failed after its records
	// were applied). Snapshotting that divergence would make it durable;
	// refuse, and let the restart recover from the last good generation.
	if m.brokenFlag.Load() {
		return errWALBroken
	}
	start := time.Now()

	// Rotate so appends move to a fresh segment; the segments before it
	// become immutable and deletable once the snapshot lands.
	m.walMu.Lock()
	err := m.w.rotate()
	m.walMu.Unlock()
	if err != nil {
		return err
	}

	// Fold the store into an image labelled with the durable seq read
	// before the fold. Journal appends happen under the store's write
	// lock and a fold copies under the read lock, so every record durable
	// before the call is in the image: a safe label, because replaying
	// records the image already reflects is idempotent (an Apply's
	// deletions and insertions are set operations). The fold is the
	// store's base, so readers reuse it — and a reader's fold of the same
	// version and label is reused here. The file is the image's bytes, so
	// its name and its header carry the same seq; a store still served
	// from its mapped file hands back that file under its own label.
	img, seq := m.store.Fold(m.seq.Load()).Image()
	// Group commit opens a second hazard the label cannot express: the
	// image was built from memory, which may include mutations whose
	// batch has not reached the disk yet (applied under the store lock,
	// ticket unresolved). Publishing now could persist a write that is
	// never acked — the batch may still fail and roll back. Hold the
	// snapshot until everything it can possibly contain (every sequence
	// number assigned before the fold finished) is durable; if the WAL
	// latches broken instead, abandon the checkpoint.
	if err := m.waitDurable(m.assignedSeq()); err != nil {
		return err
	}
	if m.hasCkpt.Load() && seq <= m.ckptSeq.Load() {
		return nil // nothing new since the last checkpoint
	}
	if _, err := writeSnapshot(m.opts.Dir, img, seq); err != nil {
		return err
	}
	m.ckptSeq.Store(seq)
	m.hasCkpt.Store(true)
	m.ckptAt.Store(time.Now().UnixMilli())
	m.ckptTook.Store(time.Since(start).Milliseconds())
	m.cleanup(seq)
	return nil
}

// cleanup removes snapshot generations beyond KeepSnapshots, the WAL
// segments no retained snapshot still needs, and stray temp files from
// interrupted checkpoints. Runs under ckptMu.
//
// WAL segments are pruned against the OLDEST retained snapshot, not the
// one just written: if the newest snapshot turns out unreadable at the
// next recovery, the fallback generation still has its full WAL tail to
// replay, so a single corrupted file never costs data.
func (m *Manager) cleanup(seq uint64) {
	pruneSeq := seq
	snaps, err := listSnapshots(m.opts.Dir)
	if err == nil {
		for i, p := range snaps {
			if i >= m.opts.KeepSnapshots {
				os.Remove(p)
				continue
			}
			if s, ok := parseSnapName(filepath.Base(p)); ok && s < pruneSeq {
				pruneSeq = s
			}
		}
	}
	segs, err := listSegments(m.opts.Dir)
	if err == nil {
		// A segment is deletable when its successor starts at or before
		// pruneSeq+1: every record it holds is then ≤ pruneSeq, i.e.
		// inside even the oldest retained snapshot. The final segment is
		// the live append target and always stays.
		for i := 0; i+1 < len(segs); i++ {
			if segs[i+1].firstSeq <= pruneSeq+1 {
				os.Remove(segs[i].path)
			}
		}
	}
	if entries, err := os.ReadDir(m.opts.Dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if len(name) > 4 && name[len(name)-4:] == ".tmp" {
				if _, ok := parseSnapName(name[:len(name)-4]); ok {
					os.Remove(filepath.Join(m.opts.Dir, name))
				}
			}
		}
	}
	// Make the removals durable: a power loss must not resurrect
	// pruned segments out of order with the snapshot that covers them.
	if err := fsx.SyncDir(m.opts.Dir); err != nil {
		m.opts.Logf("persist: cleanup dir sync: %v", err)
	}
	m.refreshWALBytes()
}

func (m *Manager) refreshWALBytes() {
	segs, err := listSegments(m.opts.Dir)
	if err != nil {
		return
	}
	var total int64
	for _, s := range segs {
		total += s.size
	}
	m.walLive.Store(total)
}

// background runs the interval fsync and checkpoint triggers until Close.
func (m *Manager) background() {
	defer m.wg.Done()
	syncTick := time.NewTicker(m.opts.SyncEvery)
	defer syncTick.Stop()
	ckptEvery := m.opts.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 365 * 24 * time.Hour // effectively off
	}
	ckptTick := time.NewTicker(ckptEvery)
	defer ckptTick.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-syncTick.C:
			if m.opts.SyncMode == SyncInterval {
				if err := m.SyncWAL(); err != nil {
					m.opts.Logf("persist: wal sync: %v", err)
				}
			}
		case <-m.ckptCh:
			if err := m.Checkpoint(); err != nil {
				m.opts.Logf("persist: checkpoint: %v", err)
			}
		case <-ckptTick.C:
			if m.opts.CheckpointEvery > 0 && m.seq.Load() > m.ckptSeq.Load() {
				if err := m.Checkpoint(); err != nil {
					m.opts.Logf("persist: checkpoint: %v", err)
				}
			}
		}
	}
}

// Stats reports durability telemetry.
func (m *Manager) Stats() Stats {
	s := Stats{
		Dir:                m.opts.Dir,
		LastSeq:            m.seq.Load(),
		WALBytes:           m.walLive.Load(),
		LastCheckpointSeq:  m.ckptSeq.Load(),
		LastCheckpointTook: time.Duration(m.ckptTook.Load()) * time.Millisecond,
		RecoveryTook:       m.recoveryTook,
		ReplayedRecords:    m.replayed,
		JournalErr:         m.store.JournalErr(),
		StoreMode:          m.store.StorageMode(),
		ResidentBytes:      m.store.ResidentEstimate(),
	}
	if ms := m.ckptAt.Load(); ms != 0 {
		s.LastCheckpointAt = time.UnixMilli(ms)
	}
	if segs, err := listSegments(m.opts.Dir); err == nil {
		s.WALSegments = len(segs)
	}
	if snaps, err := listSnapshots(m.opts.Dir); err == nil {
		s.Snapshots = len(snaps)
		if len(snaps) > 0 {
			if fi, err := os.Stat(snaps[0]); err == nil {
				s.SnapshotBytes = fi.Size()
			}
		}
	}
	s.GroupBatches = m.group.batches.Load()
	s.GroupRecords = m.group.records.Load()
	s.GroupFsyncs = m.group.fsyncs.Load()
	if m.opts.SyncMode == SyncAlways && s.GroupRecords > s.GroupFsyncs {
		// Every record would have cost its own fsync on the synchronous
		// path; the batch paid one.
		s.FsyncsSaved = s.GroupRecords - s.GroupFsyncs
	}
	if s.GroupRecords > 0 {
		s.TicketWaitMean = time.Duration(m.group.waitNs.Load() / int64(s.GroupRecords))
	}
	for i := range s.GroupBatchHist {
		s.GroupBatchHist[i] = m.group.sizeHist[i].Load()
	}
	return s
}

// Close stops the background loops, takes a final checkpoint (unless
// NoCheckpointOnClose), flushes and closes the WAL, and detaches the
// journal. The store remains usable in-memory afterwards, but further
// mutations are no longer persisted.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		close(m.stopCh)
		m.wg.Wait()
		// Detach the journal BEFORE the final drain: SetJournal takes the
		// store's write lock, so once it returns no Journal hook — and
		// therefore no enqueue — is in flight, and the drain below is
		// guaranteed to see the last batch. (The committer also drained on
		// stop, but an enqueue could have raced its exit.)
		m.store.SetJournal(nil)
		m.flushGroup()
		var firstErr error
		if !m.opts.NoCheckpointOnClose {
			if err := m.Checkpoint(); err != nil {
				firstErr = err
			}
		}
		m.walMu.Lock()
		if err := m.w.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		m.walMu.Unlock()
		m.closeErr = firstErr
	})
	return m.closeErr
}
