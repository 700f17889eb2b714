package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/colpack"
	"repro/internal/faults"
	"repro/internal/fsx"
	"repro/internal/strabon"
)

// Snapshots are written and read in one format, packed ("TELPACK1"):
// the compressed, mmap-able columnar format of internal/colpack, which is
// also the format of the store's in-memory base. A checkpoint writes the
// image of the store's newest fold byte for byte; its header seq is the
// seq in the file name.
// Recovery opens the newest one read-only via mmap and the store answers
// queries IN PLACE — no column, posting-list or dictionary
// materialisation — so restart-to-first-query is independent of dataset
// size and the on-disk bytes double as the working representation for
// larger-than-RAM datasets. A file is named snap-<seq>.snap (16 hex
// digits, seq = the last WAL sequence number it covers).
//
// The retired raw format ("TELSNAP1", same name, same seq at byte
// offset 8) is recognised only to be refused: Open fails on it with an
// errRawSnapshot that names the file and the migration, instead of
// skipping it as corrupt, which would boot an older generation or an
// empty store in its place.
//
// Snapshot files are produced via write-temp/fsync/rename
// (fsx.WriteFileAtomic), so a crash during checkpointing leaves at worst
// a stray .tmp that recovery ignores. Checksums let recovery reject a
// bit-flipped or short snapshot and fall back to the previous one.

const (
	snapMagic  = "TELSNAP1" // the retired raw format's magic
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// errRawSnapshot marks a snapshot in the retired raw format.
var errRawSnapshot = errors.New("persist: snapshot is in the retired raw format (TELSNAP1)")

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

// writeSnapshot atomically writes a packed image whose header covers WAL
// records through seq to dir, named after seq, and returns the file path.
func writeSnapshot(dir string, img []byte, seq uint64) (string, error) {
	if err := faults.Eval("snapshot/write"); err != nil {
		return "", err
	}
	path := filepath.Join(dir, snapName(seq))
	err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// isRawSnapshot reports whether the file at path starts with the
// retired raw format's magic.
func isRawSnapshot(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [len(snapMagic)]byte
	_, err = io.ReadFull(f, magic[:])
	return err == nil && string(magic[:]) == snapMagic
}

// readSnapshot verifies one packed snapshot file and restores it as a
// mapped store — mmap-ed and served in place, so this returns in
// O(verify) regardless of dataset size — with the WAL sequence number
// it covers. A raw snapshot fails with errRawSnapshot.
func readSnapshot(path string) (*strabon.Store, uint64, error) {
	r, err := colpack.Open(path)
	if err != nil {
		if isRawSnapshot(path) {
			return nil, 0, fmt.Errorf("%w: %s. This build reads only packed snapshots and has left the directory untouched. "+
				"To migrate, boot the directory once with a teleios-server built before the raw reader was removed "+
				"and stop it with SIGTERM: its shutdown checkpoint rewrites the snapshot as packed "+
				"(docs/persistence.md, \"Migrating a TELSNAP1 data directory\")", errRawSnapshot, path)
		}
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", filepath.Base(path), err)
	}
	st, err := strabon.RestorePacked(r)
	if err != nil {
		r.Close()
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", filepath.Base(path), err)
	}
	return st, r.Seq(), nil
}
