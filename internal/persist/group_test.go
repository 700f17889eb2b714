package persist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdf"
)

// Tests for the group-commit pipeline: correctness of the ticket
// protocol under concurrency (the -race soak), the durable-watermark
// contract the replication layer depends on, and the writer-count
// ablation benchmark (its historical record, BENCH_PR10.json, is in git
// history at 1b3f9ea).

// soakTriple derives a unique triple per (writer, op).
func soakTriple(writer, i int) rdf.Triple {
	return rdf.NewTriple(
		rdf.IRI(fmt.Sprintf("%ssoak/w%d/%d", exNS, writer, i)),
		rdf.IRI(exNS+"observed"),
		rdf.IntegerLiteral(int64(i)))
}

// TestGroupCommitSoak is the concurrency soak from the PR checklist: 8
// writers hammering acked-durable adds, a checkpoint hammer forcing
// rotation/pruning races, and a tailer asserting the replication-facing
// invariants — the durable watermark only moves forward, ReadWAL never
// emits past it, and the shipped sequence numbers are contiguous. After
// the dust settles, a restart must recover every acked write. Run it
// with -race; that is the point.
func TestGroupCommitSoak(t *testing.T) {
	const writers = 8
	opsPerWriter := 300
	if testing.Short() {
		opsPerWriter = 60
	}
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) {
		o.SyncMode = SyncAlways
		o.KeepSnapshots = 1000 // the tailer must not be pruned out from under
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Checkpoint hammer: rotation, snapshot writes and WAL pruning
	// racing the committer the whole run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Checkpoint(); err != nil {
				t.Errorf("checkpoint under load: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Tailer: the replica's view. LastSeq must be monotonic, ReadWAL
	// must hand over exactly the records below the watermark, in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor, lastSeen uint64
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			s := m.WaitSeq(ctx, cursor)
			cancel()
			if s < lastSeen {
				t.Errorf("durable watermark moved backwards: %d after %d", s, lastSeen)
				return
			}
			lastSeen = s
			next := cursor
			got, err := m.ReadWAL(cursor, 1<<20, func(seq uint64, op byte, body []byte) error {
				if seq != next+1 {
					return fmt.Errorf("gap in shipped records: %d after %d", seq, next)
				}
				next = seq
				return nil
			})
			// ReadWAL takes its own watermark after this loop's previous
			// reads, so only one read after it returns bounds what it may
			// have shipped.
			if durable := m.LastSeq(); next > durable {
				t.Errorf("record %d shipped past the durable watermark %d", next, durable)
				return
			}
			switch {
			case errors.Is(err, ErrWALTrimmed):
				// The checkpoint hammer pruned our resume point (possible
				// at cursor 0 before the first read): re-bootstrap the
				// cursor the way a real replica would, from a snapshot.
				cursor = m.SnapshotSeq()
			case err != nil:
				t.Errorf("tail read: %v", err)
				return
			default:
				cursor = got
			}
			select {
			case <-stop:
				if cursor >= m.LastSeq() {
					return
				}
			default:
			}
		}
	}()

	var acked atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				if !st.Add(soakTriple(w, i)) {
					t.Errorf("writer %d: add %d refused", w, i)
					return
				}
				acked.Add(1)
				// An acked write is durable NOW: the watermark must
				// already cover the sequence this store observed applied.
				if ap, ls := st.AppliedSeq(), m.LastSeq(); ap > ls {
					t.Errorf("applied seq %d above the durable watermark %d", ap, ls)
					return
				}
			}
		}(w)
	}
	// Wait for the writers, then release the hammer and tailer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if acked.Load() == int64(writers*opsPerWriter) || t.Failed() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	if t.Failed() {
		m.Close()
		t.FailNow()
	}

	stats := m.Stats()
	if got := stats.GroupRecords; got != uint64(writers*opsPerWriter) {
		t.Fatalf("group committed %d records, want %d", got, writers*opsPerWriter)
	}
	if stats.GroupFsyncs > stats.GroupRecords {
		t.Fatalf("more fsyncs (%d) than records (%d)", stats.GroupFsyncs, stats.GroupRecords)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Zero acked writes lost across restart.
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
	for w := 0; w < writers; w++ {
		for i := 0; i < opsPerWriter; i++ {
			if recovered.Add(soakTriple(w, i)) {
				t.Fatalf("acked triple (writer %d, op %d) lost across restart", w, i)
			}
		}
	}
}

// TestGroupCommitSharesFsyncs proves the batching actually batches: one
// writer is parked inside a deliberately slow fsync while 7 more
// enqueue, and the whole backlog must then clear with a single further
// flush — 8 acked records, at most a handful of fsyncs.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways })
	armFaults(t, "wal/group-fsync=2*sleep(40ms)->off")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if !st.Add(soakTriple(w, 0)) {
				t.Errorf("writer %d refused", w)
			}
		}(w)
	}
	wg.Wait()
	stats := m.Stats()
	if stats.GroupRecords != 8 {
		t.Fatalf("records = %d, want 8", stats.GroupRecords)
	}
	// First flush takes >=40ms; everyone else piles into the forming
	// batch meanwhile. Scheduling noise allows a couple of small batches
	// at the front, but nothing like one fsync per record.
	if stats.GroupFsyncs > 4 {
		t.Fatalf("%d fsyncs for 8 concurrent acked writes; batching is not happening", stats.GroupFsyncs)
	}
	if stats.FsyncsSaved != stats.GroupRecords-stats.GroupFsyncs {
		t.Fatalf("FsyncsSaved = %d, want records-fsyncs = %d", stats.FsyncsSaved, stats.GroupRecords-stats.GroupFsyncs)
	}
	var hist uint64
	for _, b := range stats.GroupBatchHist {
		hist += b
	}
	if hist != stats.GroupBatches {
		t.Fatalf("batch histogram sums to %d, want %d", hist, stats.GroupBatches)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}

// TestGroupCommitIntervalModeAcksAfterWrite: under -wal-sync intervals
// the ticket resolves after the batched write(2) — process-death
// durability, same as the synchronous path's contract — and no fsync is
// charged to the batch.
func TestGroupCommitIntervalModeAcksAfterWrite(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) {
		o.SyncMode = SyncInterval
		o.SyncEvery = time.Hour // only explicit SyncWAL, never the timer
	})
	for i := 0; i < 10; i++ {
		if !st.Add(soakTriple(0, i)) {
			t.Fatalf("add %d refused", i)
		}
	}
	stats := m.Stats()
	if stats.GroupFsyncs != 0 {
		t.Fatalf("interval mode charged %d fsyncs to batches", stats.GroupFsyncs)
	}
	if stats.LastSeq != 10 {
		t.Fatalf("durable watermark %d, want 10 (advances on write in interval mode)", stats.LastSeq)
	}
	if err := m.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}

// BenchmarkGroupCommitWriters measures acked updates with 1/2/4/8
// concurrent writers, -wal-sync always vs a 100ms interval. The
// fsyncs/op metric shows where the ~K× sharing comes from. (Row names
// keep the pipeline=group segment of the retired group-vs-nogroup
// ablation so they stay comparable with the historical BENCH_PR*.json
// records, in git history at 1b3f9ea.)
func BenchmarkGroupCommitWriters(b *testing.B) {
	modes := []struct {
		name  string
		tweak func(*Options)
	}{
		{"always", func(o *Options) { o.SyncMode = SyncAlways }},
		{"interval", func(o *Options) { o.SyncMode = SyncInterval; o.SyncEvery = 100 * time.Millisecond }},
	}
	for _, mode := range modes {
		for _, writers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("sync=%s/writers=%d/pipeline=group", mode.name, writers), func(b *testing.B) {
				opts := Options{Dir: b.TempDir(), NoCheckpointOnClose: true}
				mode.tweak(&opts)
				m, st, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							if !st.Add(rdf.NewTriple(
								rdf.IRI(fmt.Sprintf("%sbench/%d", exNS, i)),
								rdf.IRI(exNS+"p"),
								rdf.IntegerLiteral(i))) {
								b.Errorf("add %d refused", i)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				stats := m.Stats()
				b.ReportMetric(float64(stats.GroupFsyncs)/float64(b.N), "fsyncs/op")
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-updates/sec")
			})
		}
	}
}
