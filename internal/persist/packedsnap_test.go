package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colpack"
)

// Packed-snapshot corruption table and the raw-format refusal fixture.
// The PR 4 table (persist_test.go) already runs against packed files —
// it is the default format — but its corruptions hit arbitrary bytes.
// These cases target the packed format's internal structures: column
// block payloads, posting containers, the TOC, the footer trailer.
// Every one of them must make colpack.Open reject the file so recovery
// falls back to the previous snapshot generation with zero loss (the
// WAL deliberately retains everything past the OLDER generation).

// packedSection locates section id inside the packed snapshot at path
// by parsing the footer the same way the reader does, returning the
// section's byte offset and length within the file.
func packedSection(t *testing.T, path string, id uint32) (off, length uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:8]) != colpack.Magic || string(data[len(data)-8:]) != colpack.Magic {
		t.Fatalf("%s is not a packed snapshot", path)
	}
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-16:]))
	footer := data[len(data)-16-footerLen : len(data)-16]
	nSecs := int(binary.LittleEndian.Uint32(footer))
	for i := 0; i < nSecs; i++ {
		e := footer[4+i*32:]
		if binary.LittleEndian.Uint32(e) == id {
			return binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		}
	}
	t.Fatalf("section %d not found in %s", id, path)
	return 0, 0
}

// flipByteAt XORs one byte of the file at path.
func flipByteAt(t *testing.T, path string, off uint64, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= uint64(len(data)) {
		t.Fatalf("flip offset %d beyond %d-byte file", off, len(data))
	}
	data[off] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// newestSnap returns the highest-seq snapshot in dir, asserting it is
// packed (these corruptions only make sense against the packed layout).
func newestSnap(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >=2 snapshot generations, have %d (err=%v)", len(snaps), err)
	}
	if isRawSnapshot(snaps[0]) {
		t.Fatal("newest snapshot is raw, want packed")
	}
	return snaps[0]
}

func TestPackedCorruptionTable(t *testing.T) {
	const secColS, secPostS, secDict = 1, 10, 13
	cases := []struct {
		name    string
		corrupt func(t *testing.T, snap string)
	}{
		{
			// Zone-map / bit-packed payload damage: the section CRC
			// catches it even though no block is ever decoded at Open.
			name: "flipped byte in a column block payload",
			corrupt: func(t *testing.T, snap string) {
				off, length := packedSection(t, snap, secColS)
				flipByteAt(t, snap, off+length/2, 0x40)
			},
		},
		{
			// The column's block index (offset/min/max/width) lives at
			// the front of the section; widening a block's bit width
			// must not survive verification.
			name: "corrupted column block descriptor",
			corrupt: func(t *testing.T, snap string) {
				off, _ := packedSection(t, snap, secColS)
				flipByteAt(t, snap, off+8, 0xff)
			},
		},
		{
			// A posting container header (key + cardinality) steers the
			// roaring decoder; garbage there must be rejected before any
			// MatchRows can consume it.
			name: "bad posting container header",
			corrupt: func(t *testing.T, snap string) {
				off, length := packedSection(t, snap, secPostS)
				if length == 0 {
					t.Skip("empty posting section")
				}
				flipByteAt(t, snap, off, 0x01)
			},
		},
		{
			name: "flipped byte in the front-coded dictionary",
			corrupt: func(t *testing.T, snap string) {
				off, length := packedSection(t, snap, secDict)
				flipByteAt(t, snap, off+length-1, 0x80)
			},
		},
		{
			// TOC damage: a section CRC entry no longer matches the
			// footer CRC, so the footer itself is rejected.
			name: "flipped section CRC in the TOC",
			corrupt: func(t *testing.T, snap string) {
				data, err := os.ReadFile(snap)
				if err != nil {
					t.Fatal(err)
				}
				footerLen := int(binary.LittleEndian.Uint32(data[len(data)-16:]))
				footerStart := len(data) - 16 - footerLen
				// First TOC entry's crc32 field (id/pad/off/len precede it).
				flipByteAt(t, snap, uint64(footerStart+4+24), 0x01)
			},
		},
		{
			name: "truncated TOC",
			corrupt: func(t *testing.T, snap string) {
				fi, err := os.Stat(snap)
				if err != nil {
					t.Fatal(err)
				}
				// Chop into the footer body: trailing magic and the
				// length/CRC trailer are gone too.
				if err := os.Truncate(snap, fi.Size()-40); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "zeroed footer length",
			corrupt: func(t *testing.T, snap string) {
				data, err := os.ReadFile(snap)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint32(data[len(data)-16:], 0)
				if err := os.WriteFile(snap, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := buildDataDir(t, dir)
			snap := newestSnap(t, dir)
			tc.corrupt(t, snap)
			// The corrupted newest generation must no longer verify...
			if _, err := VerifySnapshot(snap); err == nil {
				t.Fatalf("corrupted snapshot still verifies")
			}
			// ...and recovery must fall back to the previous generation
			// plus the retained WAL tail: nothing lost.
			m, got := mustOpen(t, dir, nil)
			defer m.Close()
			assertSameContent(t, want, got)
			// The recovered store must keep working: append + reopen.
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

// rawFixture is a TELSNAP1 snapshot written by the last commit that had
// a raw writer (Options.SnapshotFormat = "raw"), covering WAL records
// 1..42. Nothing in the tree reads or writes this format any more; the
// file pins Open's refusal of it.
const rawFixture = "snap-000000000000002a.snap"

// installRawFixture copies the fixture (optionally damaged) into a
// fresh data directory.
func installRawFixture(t *testing.T, damage func([]byte) []byte) (dir, snap string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", rawFixture))
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil {
		data = damage(data)
	}
	dir = t.TempDir()
	snap = filepath.Join(dir, rawFixture)
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, snap
}

// assertRawRefused opens dir and checks that Open fails with the
// migration error naming snap, leaving the directory as it was.
func assertRawRefused(t *testing.T, dir, snap string) {
	t.Helper()
	before, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	m, st, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err == nil {
		m.Close()
		t.Fatalf("Open booted a raw snapshot directory (%d triples)", st.Len())
	}
	if !errors.Is(err, errRawSnapshot) || !strings.Contains(err.Error(), snap) || !strings.Contains(err.Error(), "rewrites the snapshot as packed") {
		t.Fatalf("Open error does not name the file and the migration: %v", err)
	}
	after, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("Open changed the raw snapshot")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("Open left %d entries in the directory, want only the snapshot", len(entries))
	}
}

// TestRawSnapshotFixtureRefused: a data directory holding a TELSNAP1
// snapshot does not boot — Open fails with an error naming the file and
// the migration path, without touching the directory — and the replica
// bootstrap gate (VerifySnapshot) rejects the file.
func TestRawSnapshotFixtureRefused(t *testing.T) {
	dir, snap := installRawFixture(t, nil)
	assertRawRefused(t, dir, snap)
	if _, err := VerifySnapshot(snap); err == nil {
		t.Fatal("VerifySnapshot accepted a raw snapshot")
	}
}

// TestRawSnapshotFixtureCorruption: a damaged TELSNAP1 file is refused
// the same way. Skipping it as corrupt would boot an empty store in its
// place.
func TestRawSnapshotFixtureCorruption(t *testing.T) {
	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }},
		{"flipped CRC trailer", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"truncated to the header", func(b []byte) []byte { return b[:12] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, snap := installRawFixture(t, tc.damage)
			if _, err := VerifySnapshot(snap); err == nil {
				t.Fatal("damaged raw snapshot verifies")
			}
			assertRawRefused(t, dir, snap)
		})
	}
}

// TestCheckpointWritesTheFoldImage: a checkpoint encodes once — the file
// it writes is, byte for byte, the base image the store installed — and
// the seq in the file's header is the seq in its name. Both hold whether
// the checkpoint folds the store itself or finds the current view
// already folded by a reader, which it then writes without folding again.
func TestCheckpointWritesTheFoldImage(t *testing.T) {
	dir := t.TempDir()
	m, st, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	check := func(step string) {
		t.Helper()
		snaps, err := listSnapshots(dir)
		if err != nil || len(snaps) == 0 {
			t.Fatalf("%s: no snapshot (%v)", step, err)
		}
		data, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		img, seq := st.Snapshot().Image()
		if !bytes.Equal(data, img) {
			t.Fatalf("%s: the checkpoint file is not the installed base's image", step)
		}
		name, _ := parseSnapName(filepath.Base(snaps[0]))
		header, err := colpack.Verify(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		if header != name || seq != name || name != m.Stats().LastCheckpointSeq || name != st.AppliedSeq() {
			t.Fatalf("%s: header seq %d, name %d, image %d, last checkpoint %d, applied %d",
				step, header, name, seq, m.Stats().LastCheckpointSeq, st.AppliedSeq())
		}
	}
	ts := benchTriples(3000)
	st.AddAll(ts[:1000])
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint folds")

	// Past the fold policy: the next reader folds, and the checkpoint
	// writes that fold.
	st.AddAll(ts[1000:])
	folded := st.Snapshot()
	if img, _ := folded.Image(); img == nil {
		t.Fatal("the reader's view did not fold")
	}
	builds := st.ViewCounters().FullBuilds
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("view already folded")
	if st.Snapshot() != folded || st.ViewCounters().FullBuilds != builds {
		t.Fatal("the checkpoint folded again instead of writing the reader's fold")
	}
}
