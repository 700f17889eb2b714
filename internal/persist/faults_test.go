package persist

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/stsparql"
)

// The chaos suite: every test arms a named failpoint, drives the store
// through it, and proves the documented degraded-but-correct outcome —
// vetoed writes stay vetoed, acked writes survive recovery, and no
// fault leaks into a later test (faults.Reset on cleanup). None of
// these tests may run in parallel: failpoints are process-global.

func armFaults(t *testing.T, spec string) {
	t.Helper()
	t.Cleanup(faults.Reset)
	if err := faults.EnableFromSpec(spec); err != nil {
		t.Fatalf("EnableFromSpec(%q): %v", spec, err)
	}
}

// TestReplicaApplyFaults: the synchronous append (wal.appendSeq) now
// serves only replica apply. A failed fsync or a torn write there must
// refuse exactly that record — rollback truncates it, the WAL stays
// usable, and the re-shipped record lands under the same sequence
// number — while the double fault (torn write AND a failed truncate)
// latches the WAL broken until a restart re-truncates the garbage.
// Either way recovery sees only whole, acknowledged records.
func TestReplicaApplyFaults(t *testing.T) {
	cases := []struct {
		name, spec string
		latches    bool
	}{
		{"fsync failure rolls back", "wal/fsync=1*error(disk full)->off", false},
		{"torn write rolls back", "wal/append-write=1*torn(7)->off", false},
		{"append entry refused", "wal/append=1*error(io)->off", false},
		{"torn write and failed rollback latch broken", "wal/append-write=1*torn(7)->off;wal/rollback=1*error(io)->off", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, _ := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways; o.NoJournal = true })
			if err := m.ApplyReplicated(1, opCompact, nil); err != nil {
				t.Fatal(err)
			}
			armFaults(t, tc.spec)
			if err := m.ApplyReplicated(2, opCompact, nil); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("faulted apply = %v, want injected", err)
			}
			if got := m.LastSeq(); got != 1 {
				t.Fatalf("failed append advanced the wal to %d", got)
			}
			if broken := m.Broken() != nil; broken != tc.latches {
				t.Fatalf("Broken() = %v, want latched=%v", m.Broken(), tc.latches)
			}
			// The tail loop re-fetches from its cursor: the same record
			// again, accepted unless the WAL is latched.
			err := m.ApplyReplicated(2, opCompact, nil)
			if tc.latches && !errors.Is(err, errWALBroken) {
				t.Fatalf("apply on a latched wal = %v, want errWALBroken", err)
			}
			if !tc.latches && err != nil {
				t.Fatalf("re-shipped record refused after a clean rollback: %v", err)
			}
			wantSeq := m.LastSeq()
			m.Close()

			m2, _ := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways; o.NoJournal = true })
			defer m2.Close()
			if err := m2.Broken(); err != nil {
				t.Fatalf("Broken() survived a restart: %v", err)
			}
			if got := m2.LastSeq(); got != wantSeq {
				t.Fatalf("recovered at seq %d, want %d", got, wantSeq)
			}
			if err := m2.ApplyReplicated(wantSeq+1, opCompact, nil); err != nil {
				t.Fatalf("recovered wal refused a record: %v", err)
			}
		})
	}
}

// TestGroupFsyncFailureLatchesBroken: the batch fsync runs after its
// mutations were applied in memory, so a fsync failure cannot be a clean
// veto — the rollback truncates the batch bytes but memory is now ahead
// of the log. The documented degradation is the broken latch: writer
// gets a failure, every further write is vetoed, checkpoints refuse to
// persist the divergence, and a restart recovers exactly the acked
// prefix.
func TestGroupFsyncFailureLatchesBroken(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways })
	if !st.Add(tr("a", "p", "b")) {
		t.Fatal("first add refused")
	}

	armFaults(t, "wal/group-fsync=1*error(disk full)->off")
	if st.Add(tr("a", "p", "lost")) {
		t.Fatal("add acked despite batch fsync failure")
	}
	if st.JournalVetoes() != 1 {
		t.Fatalf("vetoes = %d, want 1", st.JournalVetoes())
	}
	if m.Broken() == nil {
		t.Fatal("Broken() = nil after a failed batch")
	}
	// The failed mutation was applied before its batch ran — memory is
	// deliberately ahead of the log here; that divergence is exactly why
	// the latch exists.
	if st.Len() != 2 {
		t.Fatalf("store has %d triples, want 2 (applied-but-not-durable)", st.Len())
	}
	if st.Add(tr("a", "p", "refused")) {
		t.Fatal("broken wal acked a write")
	}
	if err := m.Checkpoint(); !errors.Is(err, errWALBroken) {
		t.Fatalf("Checkpoint on a broken wal = %v, want errWALBroken (must not snapshot the divergence)", err)
	}
	m.Close()

	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	if err := m2.Broken(); err != nil {
		t.Fatalf("Broken() survived a restart: %v", err)
	}
	if recovered.Len() != 1 {
		t.Fatalf("recovered %d triples, want 1 (only the acked write)", recovered.Len())
	}
	if recovered.Add(tr("a", "p", "b")) {
		t.Fatal("acked triple missing after recovery")
	}
	if !recovered.Add(tr("a", "p", "lost")) {
		t.Fatal("unacked triple resurrected by recovery")
	}
}

// TestGroupTornBatchDoubleFaultRestartRecovers: the group-path double
// fault — the batch write tears AND the rollback truncate fails,
// leaving garbage bytes at the segment tail. The latch holds until a
// restart, whose recovery truncates the torn tail and comes back with
// exactly the acked data, writable again.
func TestGroupTornBatchDoubleFaultRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways })
	st.Add(tr("a", "p", "b"))

	armFaults(t, "wal/append-write=1*torn(7)->off;wal/rollback=1*error(io)->off")
	if st.Add(tr("a", "p", "torn")) {
		t.Fatal("add acked despite torn batch write")
	}
	if m.Broken() == nil {
		t.Fatal("Broken() = nil after torn batch + failed rollback")
	}
	if st.Add(tr("a", "p", "refused")) {
		t.Fatal("broken wal acked a write")
	}
	if err := st.JournalErr(); !errors.Is(err, errWALBroken) {
		t.Fatalf("JournalErr = %v, want errWALBroken", err)
	}
	m.Close()

	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	if err := m2.Broken(); err != nil {
		t.Fatalf("Broken() survived a restart: %v", err)
	}
	if recovered.Len() != 1 {
		t.Fatalf("recovered %d triples, want 1", recovered.Len())
	}
	if !recovered.Add(tr("a", "p", "c")) {
		t.Fatal("recovered wal refused a write")
	}
}

// TestGroupEnqueueFaultVetoesWriteMemoryUnchanged: an enqueue-time
// failure happens before anything is applied, so it keeps the classic
// clean-veto contract — memory untouched, no latch, next write fine.
func TestGroupEnqueueFaultVetoesWriteMemoryUnchanged(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways })
	st.Add(tr("a", "p", "b"))

	armFaults(t, "wal/group-enqueue=1*error(queue full)->off")
	if st.Add(tr("a", "p", "vetoed")) {
		t.Fatal("add acked despite enqueue fault")
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d triples after a synchronous veto, want 1", st.Len())
	}
	if st.JournalVetoes() != 1 {
		t.Fatalf("vetoes = %d, want 1", st.JournalVetoes())
	}
	if err := m.Broken(); err != nil {
		t.Fatalf("enqueue veto must not latch broken: %v", err)
	}
	if !st.Add(tr("a", "p", "c")) {
		t.Fatal("add after enqueue veto refused")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}

// TestSnapshotWriteFailureKeepsOldGeneration: a failed checkpoint must
// surface its error, leave the previous snapshot generation and the
// full WAL in place, and a later checkpoint must succeed.
func TestSnapshotWriteFailureKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, nil)
	st.AddAll(equivTriples(rand.New(rand.NewSource(1)), 10))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapsBefore, _ := listSnapshots(dir)
	st.Add(tr("a", "p", "late"))

	armFaults(t, "snapshot/write=1*error(enospc)->off")
	if err := m.Checkpoint(); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Checkpoint error = %v, want injected", err)
	}
	snapsAfter, _ := listSnapshots(dir)
	if len(snapsAfter) != len(snapsBefore) || snapsAfter[0] != snapsBefore[0] {
		t.Fatalf("failed checkpoint changed snapshots: %v -> %v", snapsBefore, snapsAfter)
	}

	// The failpoint is spent; checkpointing resumes.
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault: %v", err)
	}
	m.Close()
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}

// TestTornRenameLeavesTmpRecoveryIgnores models a crash between the
// temp file's fsync and its rename: the stray .tmp stays on disk,
// recovery never confuses it for a snapshot, and the next successful
// checkpoint sweeps it away.
func TestTornRenameLeavesTmpRecoveryIgnores(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, nil)
	st.AddAll(equivTriples(rand.New(rand.NewSource(2)), 10))

	armFaults(t, "fsx/rename=1*error(crash before rename)->off")
	if err := m.Checkpoint(); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Checkpoint error = %v, want injected", err)
	}
	if n := countTmpFiles(t, dir); n != 1 {
		t.Fatalf("%d stray .tmp files, want 1", n)
	}
	m.Close()

	m2, recovered := mustOpen(t, dir, nil)
	assertSameContent(t, st, recovered)
	if err := m2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after reopen: %v", err)
	}
	if n := countTmpFiles(t, dir); n != 0 {
		t.Fatalf("%d stray .tmp files after cleanup, want 0", n)
	}
	m2.Close()
}

func countTmpFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// TestCorruptSnapshotFallsBackAGeneration: when the newest snapshot is
// unreadable at boot (colpack/open injected), recovery degrades to the
// previous generation plus the retained WAL tail — cleanup prunes the
// log against the OLDEST kept snapshot precisely so this costs nothing.
// A 400-query corpus then proves the fallback store is indistinguishable
// from the live one.
func TestCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	dir := t.TempDir()
	m, st := mustOpen(t, dir, nil)
	triples := equivTriples(rng, 20)
	st.AddAll(triples[:10])
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.AddAll(triples[10:])
	for i := 0; i < 5; i++ {
		st.Remove(triples[rng.Intn(len(triples))])
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.AddAll(equivTriples(rng, 5))
	m.Close()
	if snaps, _ := listSnapshots(dir); len(snaps) < 2 {
		t.Fatalf("want 2 snapshot generations on disk, have %d", len(snaps))
	}

	// One injected open failure hits the newest generation only.
	armFaults(t, "colpack/open=1*error(bad magic)->off")
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	// Hits counts every evaluation — the injected failure on the newest
	// generation plus the quiet pass-through on the fallback.
	if faults.Hits("colpack/open") < 2 {
		t.Fatalf("colpack/open hit %d times, want >= 2 (fail newest, pass fallback)", faults.Hits("colpack/open"))
	}
	assertSameContent(t, st, recovered)

	live, replayed := stsparql.New(st), stsparql.New(recovered)
	for qi := 0; qi < 400; qi++ {
		q := equivQuery(rng)
		lres, lerr := live.Query(q)
		rres, rerr := replayed.Query(q)
		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("query %d error divergence: live=%v fallback=%v\n%s", qi, lerr, rerr, q)
		}
		if lerr != nil {
			continue
		}
		l, r := canonResult(t, lres), canonResult(t, rres)
		if len(l) != len(r) {
			t.Fatalf("query %d: %d vs %d rows\n%s", qi, len(l), len(r), q)
		}
		for i := range l {
			if l[i] != r[i] {
				t.Fatalf("query %d row %d:\nlive     %s\nfallback %s\n%s", qi, i, l[i], r[i], q)
			}
		}
	}
}

// TestSlowDiskIsSlowNotWrong: latency injection on the group fsync path
// must delay the ack without corrupting anything — the "slow disk"
// failure mode degrades throughput, never correctness. A sequential
// writer gets a one-record batch per add, so each add pays one injected
// sleep before its ticket resolves.
func TestSlowDiskIsSlowNotWrong(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.SyncMode = SyncAlways })
	armFaults(t, "wal/group-fsync=3*sleep(30ms)->off")

	start := time.Now()
	for i := 0; i < 3; i++ {
		if !st.Add(tr("a", "p", fmt.Sprintf("o%d", i))) {
			t.Fatalf("slow add %d refused", i)
		}
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("3 adds took %v, want >= 90ms of injected latency", elapsed)
	}
	if faults.Hits("wal/group-fsync") != 3 {
		t.Fatalf("wal/group-fsync hit %d times, want 3", faults.Hits("wal/group-fsync"))
	}
	m.Close()
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, recovered)
}
