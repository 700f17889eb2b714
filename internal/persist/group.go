package persist

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/strabon"
)

// Group commit: the concurrent write pipeline behind the journal hooks.
//
// The strabon.Journal contract splits a mutation's journalling into
// sequence assignment and durability wait. The assignment half runs
// here, under the store's write lock: enqueue encodes the record into
// the forming batch (a plain byte buffer in the segment-file wire
// format), assigns it the next sequence number, and hands back a
// strabon.Commit ticket. The durability half runs at Await: the flush
// swaps the forming batch out, writes the whole batch to the live
// segment with ONE write(2) and — under SyncAlways — ONE fsync, then
// publishes the durable watermark (m.seq), wakes the WAL tailers, and
// resolves every ticket in the batch. K writers that
// enqueue while a flush is in flight share the next flush: fsyncs/op
// approaches 1/K under load without any timer, because the next batch
// simply accumulates for exactly as long as the previous fsync takes
// (natural batching). Options.GroupWindow adds a fixed accumulation
// delay on top for workloads that want bigger batches at the cost of
// latency.
//
// The flush is leader-based: there is no dedicated flusher goroutine in
// the hot path. The first ticket-holder to reach Await becomes the
// leader — it takes walMu and only THEN swaps the forming batch out, so
// every record enqueued while the previous flush was on the disk joins
// this one (late swap). Followers whose batch is already swapped just
// park on the batch's done channel. This shape matters twice over:
// a lone writer flushes its own one-record batch inline with no
// goroutine handoff (latency parity with the classic synchronous
// append), and K contending writers self-organise into cohort-sized
// batches without any timer. A slim background committer sweeps on a
// slow ticker purely as a backstop for enqueued records whose caller
// never awaited the ticket.
//
// Failure semantics differ from the synchronous append path on
// purpose. An enqueue-time failure (size cap, broken latch, the
// wal/group-enqueue failpoint) is a synchronous veto: the store has not
// applied anything and simply reports the mutation failed. But by the
// time the committer writes a batch, every mutation in it is already
// applied in memory — that is what lets the fsync run outside the
// store lock. If the batch write or fsync then fails, the partial
// batch is rolled back (truncated) and the WAL latches broken
// (errWALBroken): the applied-but-not-durable divergence cannot be
// healed online, because a client retrying its "failed" write would be
// deduplicated against the applied state and never re-journalled. Every
// later write is vetoed until a restart, whose recovery replays exactly
// what the log holds. The endpoint surfaces the latch as degraded
// read-only mode, same as the classic double-fault path.

// groupBatch is one flush unit: the wire-encoded records accumulated
// between two committer swaps, plus the shared ticket state. Every
// record enqueued into the same batch shares fate: one done channel,
// one error.
type groupBatch struct {
	buf      []byte // records in segment wire format (AppendRecord)
	count    int
	lastSeq  uint64
	sumEnqNs int64 // sum of per-record enqueue times (ticket-wait telemetry)
	leader   bool  // a ticket-holder has claimed the flush; under group.mu
	err      error // set before done is closed
	done     chan struct{}
}

// groupState is the Manager's group-commit half: the forming batch and
// its lock (never held across I/O), plus the flush telemetry.
type groupState struct {
	mu      sync.Mutex
	forming *groupBatch
	nextSeq uint64 // last ASSIGNED seq (>= the durable m.seq); under mu

	// Adaptive accumulation state: the size of the last flushed batch
	// and how long its flush took. A leader whose predecessor saw
	// concurrency (lastCount > 1) briefly holds the flush back until a
	// similar cohort has re-enqueued — see flushBatch.
	lastCount atomic.Int64
	flushNs   atomic.Int64

	batches  atomic.Uint64
	records  atomic.Uint64
	fsyncs   atomic.Uint64
	waitNs   atomic.Int64
	sizeHist [groupHistBuckets]atomic.Uint64
}

// maxAccumulate bounds the adaptive accumulation wait so a slow disk
// (whose fsync time drives the bound) cannot stretch commit latency by
// more than this on top of the flush itself.
const maxAccumulate = 2 * time.Millisecond

// groupHistBuckets is the records-per-batch histogram: bucket i counts
// batches of size in [2^i, 2^(i+1)), the last bucket is open-ended
// (>= 128).
const groupHistBuckets = 8

func histBucket(n int) int {
	b := 0
	for n > 1 && b < groupHistBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// enqueue assigns the next sequence number to one record, appends its
// wire encoding to the forming batch, and returns the commit ticket.
// Called from the Journal hooks, i.e. under the store's write lock —
// it must stay fast and must never touch the file (that is the
// committer's job, under walMu, which enqueue deliberately does not
// take). A non-nil error is a synchronous veto: the caller has not
// applied the mutation.
func (m *Manager) enqueue(op byte, body []byte) (strabon.Commit, error) {
	if ferr := faults.Eval("wal/group-enqueue"); ferr != nil {
		return strabon.Commit{}, ferr
	}
	if m.brokenFlag.Load() {
		return strabon.Commit{}, errWALBroken
	}
	if len(body)+9 > maxRecordBytes {
		return strabon.Commit{}, fmt.Errorf("persist: wal record of %d bytes exceeds the %d-byte limit; split the batch", len(body)+9, maxRecordBytes)
	}
	now := time.Now().UnixNano()
	m.group.mu.Lock()
	b := m.group.forming
	if b == nil {
		b = &groupBatch{done: make(chan struct{})}
		m.group.forming = b
	}
	m.group.nextSeq++
	seq := m.group.nextSeq
	b.buf = AppendRecord(b.buf, seq, op, body)
	b.count++
	b.lastSeq = seq
	b.sumEnqNs += now
	m.group.mu.Unlock()
	return strabon.Commit{Seq: seq, Wait: func() error {
		select {
		case <-b.done:
		default:
			// Leader election: exactly ONE ticket-holder per batch takes
			// the flush lock; everyone else parks on the done channel.
			// This is load-bearing for batching, not just tidiness — if
			// every member queued on walMu, a hot writer whose ack just
			// resolved would barge the freed lock ahead of the parked
			// members (Go mutexes admit barging until a waiter starves),
			// flush its next record as a singleton, and repeat, starving
			// the cohort into lockstep. With one leader per batch the
			// barging writer finds the leadership taken, joins the
			// forming batch, and parks.
			m.group.mu.Lock()
			elect := m.group.forming == b && !b.leader
			if elect {
				b.leader = true
			}
			m.group.mu.Unlock()
			if elect {
				m.flushBatch(b)
			}
			<-b.done
		}
		return b.err
	}}, nil
}

// committerBackstopBase is the sweep period of the background
// committer. It is deliberately slow: ticket-holders flush their own
// batches, so the sweep only matters for records whose caller never
// awaited the ticket.
const committerBackstopBase = 50 * time.Millisecond

// committer is the background backstop: a slow periodic sweep that
// flushes any forming batch nobody is awaiting. The hot path never
// waits on it — the first Await-er of a batch flushes it inline (see
// flushBatch). The period stretches with GroupWindow so the sweep does
// not cut accumulation windows short.
func (m *Manager) committer() {
	defer m.wg.Done()
	interval := committerBackstopBase
	if w := m.opts.GroupWindow; w > 0 && interval < 4*w {
		interval = 4 * w
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stopCh:
			// Final drain; Close drains again after detaching the
			// journal to catch stragglers that raced this exit.
			m.flushGroup()
			return
		case <-tick.C:
			m.flushGroup()
		}
	}
}

// flushBatch is the leader-election half of the commit: called by a
// ticket-holder of b from Commit.Wait, outside every store lock. It
// takes walMu FIRST and only then swaps the forming batch — the late
// swap is what makes batches cohort-sized, because everything enqueued
// while the previous flush was on the disk is still in b when the swap
// finally happens. If b has already been swapped by another leader (or
// the backstop), that flusher owns b's tickets and this call is a
// no-op.
func (m *Manager) flushBatch(b *groupBatch) {
	if d := m.opts.GroupWindow; d > 0 {
		// Optional fixed accumulation window, slept before contending
		// for the flush lock so late writers can still join b.
		time.Sleep(d)
	}
	m.walMu.Lock()
	m.group.mu.Lock()
	if m.group.forming != b {
		// Another flusher swapped b out; it resolves b's tickets.
		m.group.mu.Unlock()
		m.walMu.Unlock()
		return
	}
	// Enqueuers grow b.count under group.mu, so it is read under it too.
	last := b.count
	m.group.mu.Unlock()
	// Adaptive accumulation: the writers acked by the previous flush are
	// racing back through the store lock right now, and grabbing the
	// just-freed flush lock before they re-enqueue would split the cohort
	// into one tiny batch and one big one, forever. If the previous batch
	// saw concurrency, hold the swap while the batch is still GROWING —
	// quiescence (no new record for a fraction of a flush) means the
	// cohort is aboard — bounded by the time the flush itself will take
	// (nothing is gained by waiting longer than one flush). A lone
	// writer — lastCount 1 — never waits at all, which is what keeps
	// single-writer commit latency at parity with the synchronous path.
	// forming cannot be swapped from under us here: swaps only happen
	// under walMu, which we hold.
	if m.group.lastCount.Load() > 1 {
		limit := time.Duration(m.group.flushNs.Load())
		if limit > maxAccumulate {
			limit = maxAccumulate
		}
		quiet := limit / 4
		if quiet < 20*time.Microsecond {
			quiet = 20 * time.Microsecond
		}
		deadline := time.Now().Add(limit)
		grew := time.Now()
		for {
			m.group.mu.Lock()
			n := b.count
			m.group.mu.Unlock()
			now := time.Now()
			if n > last {
				last, grew = n, now
			}
			if now.Sub(grew) >= quiet || !now.Before(deadline) {
				break
			}
			runtime.Gosched()
		}
	}
	m.group.mu.Lock()
	m.group.forming = nil
	m.group.mu.Unlock()
	err := m.writeBatchLocked(b)
	m.walMu.Unlock()
	m.finishBatch(b, err)
}

// flushGroup swaps out whatever batch is forming and commits it: one
// buffered segment write, one fsync (SyncAlways), durable-watermark
// publish, tail wakeup, ticket resolution. Used by the backstop sweep
// and the Close drain; ticket-holders use flushBatch. Batch failures
// latch the WAL broken — see the package comment above — and still
// resolve every ticket, with the error.
func (m *Manager) flushGroup() {
	m.walMu.Lock()
	m.group.mu.Lock()
	b := m.group.forming
	m.group.forming = nil
	m.group.mu.Unlock()
	if b == nil {
		m.walMu.Unlock()
		return
	}
	err := m.writeBatchLocked(b)
	m.walMu.Unlock()
	m.finishBatch(b, err)
}

// finishBatch publishes a flushed batch's outcome: tail wakeup and
// checkpoint scheduling on success, the broken-latch log line on
// failure, and in both cases the shared ticket resolution. Runs after
// walMu is released so parked ticket-holders never wake into a held
// flush lock.
func (m *Manager) finishBatch(b *groupBatch, err error) {
	if err == nil {
		m.notifyTail()
		live := m.walLive.Add(int64(len(b.buf)))
		if m.opts.CheckpointBytes > 0 && live >= m.opts.CheckpointBytes && m.seq.Load() > m.ckptSeq.Load() {
			select {
			case m.ckptCh <- struct{}{}:
			default:
			}
		}
	} else {
		m.opts.Logf("persist: group commit failed, wal latched broken: %v", err)
		// Wake WaitSeq parkers too: the watermark will never advance
		// again, and waiters (checkpoint's waitDurable, replication
		// tailers) must get a chance to observe the broken latch.
		m.notifyTail()
	}
	b.err = err
	close(b.done)
}

// assignedSeq returns the last sequence number handed out to any
// record, durable or not (>= LastSeq; equal when no batch is in
// flight).
func (m *Manager) assignedSeq() uint64 {
	m.group.mu.Lock()
	s := m.group.nextSeq
	m.group.mu.Unlock()
	return s
}

// waitDurable blocks until every record assigned up to seq has reached
// the disk, or fails with errWALBroken if a batch failure latches the
// WAL first (after which the watermark can never advance).
func (m *Manager) waitDurable(seq uint64) error {
	for {
		s := m.seq.Load()
		if s >= seq {
			return nil
		}
		if m.brokenFlag.Load() {
			return errWALBroken
		}
		m.WaitSeq(context.Background(), s)
	}
}

// writeBatchLocked performs the batch's file I/O. The caller holds
// walMu (serialising against rotation, checkpoint, close and other
// flushers — but NOT against enqueue, which only takes group.mu).
// Holding walMu across the swap AND the write is what keeps the file
// in sequence order: batch N+1 cannot even be swapped out until batch
// N's flusher releases the lock. Any failure here latches the WAL
// broken: the batch's mutations are already applied in memory.
func (m *Manager) writeBatchLocked(b *groupBatch) error {
	flushStart := time.Now()
	w := m.w
	if w.failed {
		m.brokenFlag.Store(true)
		return errWALBroken
	}
	if ferr := faults.Eval("wal/append-write"); ferr != nil {
		if allow, ok := faults.AsTorn(ferr); ok && allow < len(b.buf) {
			// Persist the torn prefix a power cut would, then recover
			// the way a real short write does.
			w.f.Write(b.buf[:allow])
		}
		w.rollback()
		m.latchBroken(w)
		return ferr
	}
	if _, err := w.f.Write(b.buf); err != nil {
		w.rollback()
		m.latchBroken(w)
		return err
	}
	if m.opts.SyncMode == SyncAlways {
		if ferr := faults.Eval("wal/group-fsync"); ferr != nil {
			w.rollback()
			m.latchBroken(w)
			return ferr
		}
		if err := w.f.Sync(); err != nil {
			w.rollback()
			m.latchBroken(w)
			return err
		}
		w.dirty = false
		m.group.fsyncs.Add(1)
	} else {
		w.dirty = true
	}
	w.seq = b.lastSeq
	w.segBytes += int64(len(b.buf))
	// Publish the durable watermark: LastSeq/WaitSeq/ReadWAL and
	// checkpoint labels all key on it, so replication and snapshots only
	// ever see records that are actually on stable storage (per the
	// configured sync policy).
	m.seq.Store(b.lastSeq)
	m.group.lastCount.Store(int64(b.count))
	m.group.flushNs.Store(int64(time.Since(flushStart)))
	m.group.batches.Add(1)
	m.group.records.Add(uint64(b.count))
	m.group.waitNs.Add(time.Now().UnixNano()*int64(b.count) - b.sumEnqNs)
	m.group.sizeHist[histBucket(b.count)].Add(1)
	return nil
}

// latchBroken marks the WAL unusable after a batch failure, whether or
// not the rollback truncate succeeded: unlike the synchronous append
// path (where a clean rollback means the vetoed mutation never touched
// memory and the next write may proceed), a failed BATCH leaves applied
// state the log does not hold, so continuing would silently diverge.
// Callers hold walMu.
func (m *Manager) latchBroken(w *wal) {
	w.failed = true
	m.brokenFlag.Store(true)
}
