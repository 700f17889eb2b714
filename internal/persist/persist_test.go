package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

const exNS = "http://example.org/"

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(rdf.IRI(exNS+s), rdf.IRI(exNS+p), rdf.IRI(exNS+o))
}

func trLit(s, p string, o rdf.Term) rdf.Triple {
	return rdf.NewTriple(rdf.IRI(exNS+s), rdf.IRI(exNS+p), o)
}

// canonTriples renders a store's live triples as sorted N-Triples-ish
// lines, a content fingerprint independent of row order.
func canonTriples(st *strabon.Store) []string {
	ts := st.Triples()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.S.String() + " " + t.P.String() + " " + t.O.String()
	}
	sort.Strings(out)
	return out
}

func assertSameContent(t *testing.T, want, got *strabon.Store) {
	t.Helper()
	w, g := canonTriples(want), canonTriples(got)
	if len(w) != len(g) {
		t.Fatalf("triple count mismatch: want %d, got %d", len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("triple %d mismatch:\nwant %s\ngot  %s", i, w[i], g[i])
		}
	}
}

func mustOpen(t *testing.T, dir string, tweak func(*Options)) (*Manager, *strabon.Store) {
	t.Helper()
	opts := Options{Dir: dir, SyncMode: SyncNone, Logf: t.Logf}
	if tweak != nil {
		tweak(&opts)
	}
	m, st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m, st
}

func TestEmptyDirYieldsEmptyStore(t *testing.T) {
	m, st := mustOpen(t, t.TempDir(), nil)
	defer m.Close()
	if st.Len() != 0 {
		t.Fatalf("fresh store has %d triples", st.Len())
	}
	if stats := m.Stats(); stats.LastSeq != 0 {
		t.Fatalf("fresh wal at seq %d", stats.LastSeq)
	}
}

func TestWALReplayWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })
	st.Add(tr("s1", "p", "o1"))
	st.AddAll([]rdf.Triple{tr("s2", "p", "o2"), tr("s3", "p", "o3"), tr("s2", "p", "o2")})
	st.Add(trLit("s4", "label", rdf.Literal("multi\nline \"quoted\" \\u2603 ☃")))
	st.Add(trLit("s5", "geom", rdf.TypedLiteral("POINT (23.7 37.9)", rdf.StRDFWKT)))
	st.Remove(tr("s1", "p", "o1"))
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// No snapshot must exist: this exercises pure log replay.
	if snaps, _ := listSnapshots(dir); len(snaps) != 0 {
		t.Fatalf("unexpected snapshots %v", snaps)
	}

	m2, st2 := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, st2)
	if st2.Len() != 4 {
		t.Fatalf("recovered %d triples, want 4", st2.Len())
	}
	// The spatial literal's geometry cache must be rebuilt on replay.
	id, err := st2.LookupID(rdf.TypedLiteral("POINT (23.7 37.9)", rdf.StRDFWKT))
	if err != nil {
		t.Fatalf("spatial literal missing from dictionary: %v", err)
	}
	if _, ok := st2.Snapshot().Geometry(id); !ok {
		t.Fatalf("geometry cache not rebuilt for id %d", id)
	}
	if m2.Stats().ReplayedRecords == 0 {
		t.Fatal("expected replayed records")
	}
}

func TestSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })
	for i := 0; i < 50; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint tail: adds, a remove, a fold (which logs nothing).
	for i := 50; i < 60; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	st.Remove(tr("s10", "p", "o"))
	st.Fold(st.AppliedSeq())
	m.Close()

	m2, st2 := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, st2)
	if got := m2.Stats().ReplayedRecords; got != 11 {
		t.Fatalf("replayed %d records, want 11 (10 adds + remove)", got)
	}
}

func TestCheckpointPrunesWALAndOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.KeepSnapshots = 2 })
	for round := 0; round < 4; round++ {
		for i := 0; i < 20; i++ {
			st.Add(tr(fmt.Sprintf("r%d-s%d", round, i), "p", "o"))
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots, want 2", len(snaps))
	}
	segs, _ := listSegments(dir)
	// Everything before the newest checkpoint is covered by it: only the
	// live append segment (and possibly the one rotated at checkpoint
	// time) should remain.
	if len(segs) > 2 {
		t.Fatalf("kept %d wal segments after checkpoint, want <= 2", len(segs))
	}
	m.Close()

	m2, st2 := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameContent(t, st, st2)
}

func TestIdempotentCheckpointSkips(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, nil)
	defer m.Close()
	st.Add(tr("s", "p", "o"))
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, _ := listSnapshots(dir)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := listSnapshots(dir)
	if len(after) != len(before) || after[0] != before[0] {
		t.Fatalf("no-op checkpoint changed snapshots: %v -> %v", before, after)
	}
}

// TestDictionaryIDsStableAcrossRecovery asserts the replayed dictionary
// assigns the same ids as the original (replay re-encodes new triples in
// original order).
func TestDictionaryIDsStableAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })
	terms := []rdf.Term{
		rdf.IRI(exNS + "alpha"),
		rdf.Literal("beta"),
		rdf.TypedLiteral("POINT (1 2)", rdf.StRDFWKT),
		rdf.LangLiteral("gamma", "en"),
	}
	for i, tm := range terms {
		st.Add(trLit(fmt.Sprintf("s%d", i), "p", tm))
	}
	ids := make(map[string]uint64)
	for _, tm := range terms {
		id, err := st.LookupID(tm)
		if err != nil {
			t.Fatal(err)
		}
		ids[tm.String()] = id
	}
	m.Close()

	m2, st2 := mustOpen(t, dir, nil)
	defer m2.Close()
	for _, tm := range terms {
		id, err := st2.LookupID(tm)
		if err != nil {
			t.Fatalf("%s missing after recovery: %v", tm, err)
		}
		if id != ids[tm.String()] {
			t.Fatalf("%s: id %d after recovery, was %d", tm, id, ids[tm.String()])
		}
	}
}

func TestJournalVetoOnClosedWAL(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, nil)
	st.Add(tr("s", "p", "o"))
	// Close the manager, then force more writes through the still-alive
	// store: the journal was detached by Close, so they apply in memory
	// only — and a fresh manager must not see them.
	m.Close()
	st.Add(tr("after", "p", "o"))
	if st.Len() != 2 {
		t.Fatalf("in-memory store should accept post-close writes, len=%d", st.Len())
	}
	_, st2 := mustOpenAndClose(t, dir)
	if st2.Len() != 1 {
		t.Fatalf("recovered %d triples, want only the journalled 1", st2.Len())
	}
}

func mustOpenAndClose(t *testing.T, dir string) (*Manager, *strabon.Store) {
	t.Helper()
	m, st := mustOpen(t, dir, nil)
	m.Close()
	return m, st
}

// --- corruption table -------------------------------------------------------

// buildDataDir populates a data directory with two snapshot generations
// (covering the first 20 and first 30 triples) and a WAL tail holding 20
// more, closing without a final checkpoint. The WAL retains everything
// past the OLDER snapshot (records 21..50), so the newer snapshot is a
// single point of failure only for nothing.
func buildDataDir(t *testing.T, dir string) *strabon.Store {
	t.Helper()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })
	for i := 0; i < 20; i++ {
		st.Add(tr(fmt.Sprintf("base%d", i), "p", "o"))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		st.Add(tr(fmt.Sprintf("base%d", i), "p", "o"))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st.Add(tr(fmt.Sprintf("tail%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// lastSegment returns the path of the highest-firstseq WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1].path
}

// TestAllSnapshotsCorruptRefusesToBoot: when no snapshot generation
// loads and the WAL has already been pruned against one, the records
// bridging genesis to the surviving log are gone — recovery must fail
// loudly instead of booting (and later re-checkpointing) a store that
// silently lost its checkpointed prefix.
func TestAllSnapshotsCorruptRefusesToBoot(t *testing.T) {
	dir := t.TempDir()
	buildDataDir(t, dir)
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 2 {
		t.Fatalf("expected 2 snapshot generations, have %d", len(snaps))
	}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := Open(Options{Dir: dir, SyncMode: SyncNone, Logf: t.Logf})
	if err == nil {
		t.Fatal("Open succeeded with every snapshot corrupt and a pruned WAL")
	}
	if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A WAL that was never pruned (no checkpoint yet) has no such gap:
	// losing a snapshot that covers nothing the log lacks must still
	// boot via full replay.
	dir2 := t.TempDir()
	m, st := mustOpen(t, dir2, func(o *Options) { o.NoCheckpointOnClose = true })
	st.Add(tr("only", "p", "o"))
	m.Close()
	m2, st2 := mustOpen(t, dir2, nil)
	defer m2.Close()
	if st2.Len() != 1 {
		t.Fatalf("full replay boot recovered %d triples", st2.Len())
	}
}

func TestRecoveryCorruptionTable(t *testing.T) {
	cases := []struct {
		name string
		// corrupt mutates the data dir after buildDataDir.
		corrupt func(t *testing.T, dir string)
		// wantLost is how many of the 50 triples may be missing after
		// recovery (tail records dropped by the corruption).
		wantLost int
	}{
		{
			name: "truncated final wal record",
			corrupt: func(t *testing.T, dir string) {
				p := lastSegment(t, dir)
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				// Chop into the middle of the final record's payload.
				if err := os.Truncate(p, fi.Size()-7); err != nil {
					t.Fatal(err)
				}
			},
			wantLost: 1,
		},
		{
			name: "bit-flipped record CRC",
			corrupt: func(t *testing.T, dir string) {
				p := lastSegment(t, dir)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				// Flip one bit in the middle of the last record's body; its
				// CRC check must reject it (and, it being the final record,
				// recovery drops exactly that one).
				data[len(data)-3] ^= 0x10
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantLost: 1,
		},
		{
			name: "missing newest snapshot falls back to the previous generation",
			corrupt: func(t *testing.T, dir string) {
				snaps, _ := listSnapshots(dir)
				os.Remove(snaps[0])
			},
			// The older snapshot plus the WAL tail past it (which pruning
			// deliberately retained) reconstructs everything.
			wantLost: 0,
		},
		{
			name: "bit-flipped newest snapshot falls back to the previous generation",
			corrupt: func(t *testing.T, dir string) {
				snaps, _ := listSnapshots(dir)
				data, err := os.ReadFile(snaps[0])
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantLost: 0,
		},
		// (Losing EVERY snapshot generation is a double fault that makes
		// the checkpointed prefix unrecoverable; Open must refuse rather
		// than boot a silently truncated store — covered separately by
		// TestAllSnapshotsCorruptRefusesToBoot.)
		{
			name: "half-renamed snapshot temp file is ignored",
			corrupt: func(t *testing.T, dir string) {
				// Simulate a crash between temp-write and rename: a *.snap.tmp
				// with plausible garbage. Recovery must not even look at it.
				tmp := filepath.Join(dir, snapName(1<<40)+".tmp")
				if err := os.WriteFile(tmp, []byte(snapMagic+"garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantLost: 0,
		},
		{
			name: "garbage appended to wal",
			corrupt: func(t *testing.T, dir string) {
				p := lastSegment(t, dir)
				f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01})
				f.Close()
			},
			wantLost: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := buildDataDir(t, dir)
			tc.corrupt(t, dir)
			m, got := mustOpen(t, dir, nil)
			defer m.Close()
			lost := want.Len() - got.Len()
			if lost < 0 || lost > tc.wantLost {
				t.Fatalf("lost %d triples, tolerated %d (recovered %d of %d)",
					lost, tc.wantLost, got.Len(), want.Len())
			}
			// Whatever survived must be a clean prefix-consistent subset:
			// every recovered triple exists in the original.
			wantSet := map[string]bool{}
			for _, line := range canonTriples(want) {
				wantSet[line] = true
			}
			for _, line := range canonTriples(got) {
				if !wantSet[line] {
					t.Fatalf("recovered alien triple %s", line)
				}
			}
			// And the recovered store must keep working: append + reopen.
			got.Add(tr("post-recovery", "p", "o"))
			postLen := got.Len()
			m.Close()
			m2, again := mustOpen(t, dir, nil)
			defer m2.Close()
			if again.Len() != postLen {
				t.Fatalf("post-recovery write lost: %d != %d", again.Len(), postLen)
			}
		})
	}
}
