package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colpack"
	"repro/internal/rdf"
	"repro/internal/strabon"
)

// Packed-snapshot corruption table and the raw-reader regression fixture.
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
	if raw, err := sniffSnapshotFormat(snaps[0]); err != nil || raw {
		t.Fatalf("newest snapshot raw=%v err=%v, want packed", raw, err)
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
// a raw writer (PR 11, Options.SnapshotFormat = "raw"): the triples of
// rawFixtureTriples, covering WAL records 1..42. Nothing in the tree can
// produce this format any more; the file pins the reader.
const rawFixture = "snap-000000000000002a.snap"

func rawFixtureTriples() *strabon.Store {
	st := strabon.NewStore()
	for i := 0; i < 40; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i%7)))
	}
	st.Add(trLit("site0", "hasGeometry", rdf.WKTLiteral("POINT (23.05 37.64)", 4326)))
	st.Add(trLit("site1", "hasGeometry", rdf.WKTLiteral("POLYGON ((21 37, 22 37, 22 38, 21 38, 21 37))", 4326)))
	return st
}

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

// TestRawSnapshotFixtureRecovers: a data directory whose newest snapshot
// is TELSNAP1 still boots (on the heap), recovery says once that the
// file is raw and will be rewritten, and the next checkpoint — even with
// nothing written since — replaces it with a packed snapshot that the
// following boot serves mapped.
func TestRawSnapshotFixtureRecovers(t *testing.T) {
	dir, snap := installRawFixture(t, nil)
	if seq, err := VerifySnapshot(snap); err != nil || seq != 42 {
		t.Fatalf("VerifySnapshot(fixture) = %d, %v; want 42, nil", seq, err)
	}
	var rawLogs int
	logf := func(format string, args ...any) {
		if strings.Contains(format, "retired raw format") {
			rawLogs++
		}
		t.Logf(format, args...)
	}
	want := rawFixtureTriples()

	m, st := mustOpen(t, dir, func(o *Options) { o.Logf = logf })
	if rawLogs != 1 {
		t.Fatalf("recovery logged the raw snapshot %d times, want once", rawLogs)
	}
	if mode := st.StorageMode(); mode != "heap" {
		t.Fatalf("raw snapshot recovered as %q, want heap", mode)
	}
	if got := m.Stats().LastSeq; got != 42 {
		t.Fatalf("recovered at seq %d, want 42", got)
	}
	assertSameContent(t, want, st)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("checkpoint left %d snapshots, want the rewritten one", len(snaps))
	}
	if raw, err := sniffSnapshotFormat(snaps[0]); err != nil || raw {
		t.Fatalf("post-checkpoint snapshot raw=%v err=%v, want packed", raw, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, st2 := mustOpen(t, dir, func(o *Options) { o.Logf = logf })
	defer m2.Close()
	if rawLogs != 1 {
		t.Fatalf("raw-format log repeated after the rewrite (%d)", rawLogs)
	}
	if mode := st2.StorageMode(); mode != "mapped" {
		t.Fatalf("rewritten snapshot recovered as %q, want mapped", mode)
	}
	assertSameContent(t, want, st2)
}

// TestRawSnapshotFixtureCorruption: the raw reader's whole-file CRC must
// still reject a damaged TELSNAP1 file, in verification (the replica
// bootstrap gate) and in recovery alike.
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
				t.Fatal("damaged raw snapshot still verifies")
			}
			if _, _, _, err := readSnapshot(snap); err == nil {
				t.Fatal("damaged raw snapshot still loads")
			}
			// Recovery skips it; with no WAL and no other generation
			// that leaves an empty store, never a half-read one.
			m, st := mustOpen(t, dir, nil)
			defer m.Close()
			if st.Len() != 0 {
				t.Fatalf("recovery took %d triples from a damaged snapshot", st.Len())
			}
		})
	}
}
