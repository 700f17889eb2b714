package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// One statement, one record: the opApply WAL record every Store.Apply
// and Store.Update writes, its replay and shipping, the legacy
// opAdd/opRemove records older directories still hold, and torn opApply
// records.

// shipAll tails every record of m into a fresh replica manager and
// returns the replica's store and the ops shipped, in order.
func shipAll(t *testing.T, m *Manager) (*strabon.Store, []byte) {
	t.Helper()
	rm, rs := mustOpen(t, t.TempDir(), func(o *Options) { o.NoJournal = true })
	t.Cleanup(func() { rm.Close() })
	var ops []byte
	if _, err := m.ReadWAL(0, 0, func(seq uint64, op byte, body []byte) error {
		ops = append(ops, op)
		return rm.ApplyReplicated(seq, op, body)
	}); err != nil {
		t.Fatal(err)
	}
	if rm.LastSeq() != m.LastSeq() || rs.AppliedSeq() != m.LastSeq() {
		t.Fatalf("replica at seq %d (watermark %d), primary at %d", rm.LastSeq(), rs.AppliedSeq(), m.LastSeq())
	}
	return rs, ops
}

// assertSameRows checks that two stores hold the same live triples in
// the same row order.
func assertSameRows(t *testing.T, what string, want, got *strabon.Store) {
	t.Helper()
	if w, g := want.Triples(), got.Triples(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: triples differ\nwant %v\ngot  %v", what, w, g)
	}
}

// TestStatementIsOneRecord: a DELETE DATA of five triples and a modify
// touching three each advance the WAL by exactly one record; recovery of
// the abandoned directory and a replica fed the shipped records both
// reproduce the store row for row.
func TestStatementIsOneRecord(t *testing.T) {
	dir := t.TempDir()
	m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true })
	eng := stsparql.New(st)
	const ex = "PREFIX ex: <" + exNS + ">\n"
	steps := []struct {
		name, update string
		affected     int
	}{
		{"INSERT DATA of 8 triples", ex + `INSERT DATA { ex:a ex:p ex:o1 . ex:a ex:p ex:o2 . ex:a ex:p ex:o3 .
			ex:a ex:p ex:o4 . ex:a ex:p ex:o5 . ex:a ex:p ex:o6 . ex:reg ex:val "v0" . ex:reg ex:geom
			"POINT (23.7 37.9)"^^<http://strdf.di.uoa.gr/ontology#WKT> }`, 8},
		{"DELETE DATA of 5 triples", ex + `DELETE DATA { ex:a ex:p ex:o1 . ex:a ex:p ex:o2 . ex:a ex:p ex:o3 .
			ex:a ex:p ex:o4 . ex:a ex:p ex:o5 }`, 5},
		{"modify touching 3 triples", ex + `DELETE { ex:reg ex:val ?old } INSERT { ex:reg ex:val "v1" . ex:reg ex:mark "m" }
			WHERE { ex:reg ex:val ?old }`, 3},
	}
	for _, s := range steps {
		before := m.LastSeq()
		res, err := eng.Query(s.update)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Affected != s.affected {
			t.Fatalf("%s: affected %d, want %d", s.name, res.Affected, s.affected)
		}
		if got := m.LastSeq() - before; got != 1 {
			t.Fatalf("%s: the WAL advanced by %d records, want 1", s.name, got)
		}
	}

	replica, ops := shipAll(t, m)
	if !bytes.Equal(ops, []byte{opApply, opApply, opApply}) {
		t.Fatalf("shipped ops %v, want three opApply records", ops)
	}
	assertSameRows(t, "replica", st, replica)

	// Walk away without Close: recovery replays the three records.
	m2, recovered := mustOpen(t, dir, nil)
	defer m2.Close()
	assertSameRows(t, "recovered", st, recovered)
	if m2.LastSeq() != 3 {
		t.Fatalf("recovered at seq %d, want 3", m2.LastSeq())
	}
}

// TestLegacyRecordsReplayAndShip: a segment written with the opAdd,
// opRemove and opCompact records older versions logged still recovers,
// and still ships verbatim to a replica; new writes append opApply
// records after them. opCompact replays as a no-op that only advances
// the log: recovery and ApplyReplicated both leave the triples records 1
// and 2 left, at seq 3.
func TestLegacyRecordsReplayAndShip(t *testing.T) {
	dir := t.TempDir()
	seg := []byte(walMagic)
	seg = AppendRecord(seg, 1, opAdd, appendTriples(nil, []rdf.Triple{tr("a", "p", "x"), tr("a", "p", "y"), tr("a", "p", "z")}))
	seg = AppendRecord(seg, 2, opRemove, appendTriple(nil, tr("a", "p", "y")))
	seg = AppendRecord(seg, 3, opCompact, nil)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	want := []rdf.Triple{tr("a", "p", "x"), tr("a", "p", "z")}
	m, st := mustOpen(t, dir, nil)
	defer m.Close()
	if !reflect.DeepEqual(st.Triples(), want) {
		t.Fatalf("recovered %v, want %v", st.Triples(), want)
	}
	if m.LastSeq() != 3 || st.AppliedSeq() != 3 {
		t.Fatalf("recovered at seq %d (watermark %d), want 3", m.LastSeq(), st.AppliedSeq())
	}

	rm, rs := mustOpen(t, t.TempDir(), func(o *Options) { o.NoJournal = true })
	defer rm.Close()
	if _, err := m.ReadWAL(0, 0, func(seq uint64, op byte, body []byte) error {
		if op == opCompact && !reflect.DeepEqual(rs.Triples(), want) {
			t.Fatalf("replica before opCompact holds %v, want %v", rs.Triples(), want)
		}
		return rm.ApplyReplicated(seq, op, body)
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Triples(), want) {
		t.Fatalf("replica after opCompact holds %v, want %v", rs.Triples(), want)
	}
	if rm.LastSeq() != 3 || rs.AppliedSeq() != 3 {
		t.Fatalf("replica at seq %d (watermark %d), want 3", rm.LastSeq(), rs.AppliedSeq())
	}

	if !st.Add(tr("a", "p", "w")) {
		t.Fatal("write after legacy recovery refused")
	}
	replica, ops := shipAll(t, m)
	if !bytes.Equal(ops, []byte{opAdd, opRemove, opCompact, opApply}) {
		t.Fatalf("shipped ops %v, want the three legacy records then opApply", ops)
	}
	assertSameRows(t, "replica", st, replica)
}

// TestTornApplyRecordNeverHalfApplied: every strict prefix of an opApply
// record is a torn record — recovery drops it, a shipped stream reports
// it — and a body cut short under a valid CRC is refused whole, so no
// part of a statement is ever applied without the rest.
func TestTornApplyRecordNeverHalfApplied(t *testing.T) {
	first := appendTriples(appendTriples(nil, nil), []rdf.Triple{tr("a", "p", "x"), tr("a", "p", "y")})
	body := appendTriples(appendTriples(nil, []rdf.Triple{tr("a", "p", "x")}), []rdf.Triple{tr("a", "p", "z")})
	want := []rdf.Triple{tr("a", "p", "x"), tr("a", "p", "y")}
	head := AppendRecord([]byte(walMagic), 1, opApply, first)
	rec := AppendRecord(nil, 2, opApply, body)

	for cut := 1; cut < len(rec); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), append(head[:len(head):len(head)], rec[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		m, st := mustOpen(t, dir, func(o *Options) { o.NoCheckpointOnClose = true; o.Logf = nil })
		if m.LastSeq() != 1 || !reflect.DeepEqual(st.Triples(), want) {
			t.Fatalf("cut %d/%d: recovered seq %d with %v, want seq 1 with %v", cut, len(rec), m.LastSeq(), st.Triples(), want)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		sc := NewRecordScanner(bytes.NewReader(rec[:cut]), 1)
		if _, _, _, err := sc.Next(); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut %d/%d: shipped prefix = %v, want ErrTornRecord", cut, len(rec), err)
		}
	}

	rm, rs := mustOpen(t, t.TempDir(), func(o *Options) { o.NoJournal = true })
	defer rm.Close()
	if err := rm.ApplyReplicated(1, opApply, first); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if err := rm.ApplyReplicated(2, opApply, body[:cut]); err == nil {
			t.Fatalf("body cut at %d/%d applied", cut, len(body))
		}
		if rm.LastSeq() != 1 || !reflect.DeepEqual(rs.Triples(), want) {
			t.Fatalf("body cut at %d/%d: replica at seq %d with %v, want seq 1 with %v", cut, len(body), rm.LastSeq(), rs.Triples(), want)
		}
	}
	if err := rm.ApplyReplicated(2, opApply, append(body[:len(body):len(body)], 0)); err == nil {
		t.Fatal("body with a trailing byte applied")
	}
	if err := rm.ApplyReplicated(2, opApply, body); err != nil {
		t.Fatal(err)
	}
	if want := []rdf.Triple{tr("a", "p", "y"), tr("a", "p", "z")}; !reflect.DeepEqual(rs.Triples(), want) {
		t.Fatalf("whole record applied %v, want %v", rs.Triples(), want)
	}
	if _, _, _, err := NewRecordScanner(bytes.NewReader(rec), 1).Next(); err != nil {
		t.Fatalf("shipped whole record: %v", err)
	}
}
