package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAppendRollbackOnFailure: a failed append must leave the segment
// exactly as it was (no partial record, no burned sequence number), and
// an un-rollbackable failure must poison the handle instead of letting
// a later append write behind garbage.
func TestAppendRollbackOnFailure(t *testing.T) {
	dir := t.TempDir()
	w := &wal{dir: dir}
	if err := w.rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendSeq(w.seq+1, opCompact, nil, true); err != nil {
		t.Fatal(err)
	}
	goodSeq, goodBytes := w.seq, w.segBytes

	// Force the write to fail by closing the fd out from under the wal.
	path := filepath.Join(dir, segName(w.segStart))
	held := w.f
	held.Close()
	if _, err := w.appendSeq(w.seq+1, opCompact, nil, true); err == nil {
		t.Fatal("append over closed fd succeeded")
	}
	// Rollback could not truncate a closed fd: the handle must be poisoned.
	if !w.failed {
		t.Fatal("wal not poisoned after un-rollbackable failure")
	}
	if _, err := w.appendSeq(w.seq+1, opCompact, nil, false); !errors.Is(err, errWALBroken) {
		t.Fatalf("append on poisoned wal: %v, want errWALBroken", err)
	}
	if w.seq != goodSeq {
		t.Fatalf("failed appends advanced seq: %d -> %d", goodSeq, w.seq)
	}
	// The on-disk segment still holds exactly the one good record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != goodBytes {
		t.Fatalf("segment size %d, want %d", fi.Size(), goodBytes)
	}
	_, last, err := scanSegment(path, 0, func(walRecord) error { return nil })
	if err != nil || last != goodSeq {
		t.Fatalf("scan after failure: last=%d err=%v", last, err)
	}
}

// TestAppendEnforcesRecordCap: a record the recovery scanner would
// reject as implausible must be refused at append time, not
// acknowledged and then dropped at the next boot.
func TestAppendEnforcesRecordCap(t *testing.T) {
	w := &wal{dir: t.TempDir()}
	if err := w.rotate(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	_, err := w.appendSeq(w.seq+1, opAdd, make([]byte, maxRecordBytes), false)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized append: %v", err)
	}
	if w.seq != 0 || w.failed {
		t.Fatalf("oversized append mutated state: seq=%d failed=%v", w.seq, w.failed)
	}
	if _, err := w.appendSeq(w.seq+1, opCompact, nil, false); err != nil {
		t.Fatalf("wal unusable after size rejection: %v", err)
	}
}
