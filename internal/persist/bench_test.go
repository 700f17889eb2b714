package persist

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/rdf"
	"repro/internal/strabon"
)

// benchTriples builds a synthetic catalogue: n triples across n/4
// subjects with typed, plain, and spatial literals — the shape of the
// NOA hotspot product the paper's observatory persists.
func benchTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	preds := []rdf.Term{
		rdf.IRI(exNS + "hasConfidence"),
		rdf.IRI(exNS + "inSensor"),
		rdf.IRI(exNS + "hasGeometry"),
		rdf.IRI(rdf.RDFType),
	}
	for i := 0; len(out) < n; i++ {
		s := rdf.IRI(fmt.Sprintf("%shotspot/%d", exNS, i))
		out = append(out, rdf.NewTriple(s, preds[3], rdf.IRI(exNS+"Hotspot")))
		out = append(out, rdf.NewTriple(s, preds[0], rdf.DoubleLiteral(float64(i%100)/100)))
		out = append(out, rdf.NewTriple(s, preds[1], rdf.Literal(fmt.Sprintf("MSG-%d", i%3))))
		if i%10 == 0 {
			wkt := fmt.Sprintf("POINT (%.4f %.4f)", 20.0+float64(i%500)/100, 36.0+float64(i%300)/100)
			out = append(out, rdf.NewTriple(s, preds[2], rdf.TypedLiteral(wkt, rdf.StRDFWKT)))
		}
	}
	return out[:n]
}

// BenchmarkWALAppend measures the per-mutation journalling cost on the
// store's write path (no fsync: the SIGKILL-durability configuration).
func BenchmarkWALAppend(b *testing.B) {
	m, st := openBench(b, SyncNone)
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("%ss%d", exNS, i)),
			rdf.IRI(exNS+"p"),
			rdf.IntegerLiteral(int64(i))))
	}
}

// BenchmarkWALAppendBatch measures journalling a 100-triple AddAll —
// one WAL record per batch.
func BenchmarkWALAppendBatch(b *testing.B) {
	m, st := openBench(b, SyncNone)
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]rdf.Triple, 100)
		for j := range batch {
			batch[j] = rdf.NewTriple(
				rdf.IRI(fmt.Sprintf("%ss%d-%d", exNS, i, j)),
				rdf.IRI(exNS+"p"),
				rdf.IntegerLiteral(int64(j)))
		}
		st.AddAll(batch)
	}
}

// BenchmarkWALAppendSynced is BenchmarkWALAppend with an fsync per
// record — the power-loss-durable configuration.
func BenchmarkWALAppendSynced(b *testing.B) {
	m, st := openBench(b, SyncAlways)
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Add(rdf.NewTriple(
			rdf.IRI(fmt.Sprintf("%ss%d", exNS, i)),
			rdf.IRI(exNS+"p"),
			rdf.IntegerLiteral(int64(i))))
	}
}

func openBench(b *testing.B, mode SyncMode) (*Manager, *strabon.Store) {
	b.Helper()
	m, st, err := Open(Options{Dir: b.TempDir(), SyncMode: mode})
	if err != nil {
		b.Fatal(err)
	}
	return m, st
}

func benchSizes() []int {
	if testing.Short() {
		return []int{100_000}
	}
	return []int{100_000, 1_000_000}
}

// BenchmarkSnapshotWrite measures producing the checkpoint payload
// (off the write path); the reported bytes/op-style `disk-bytes` metric
// is the snapshot file size. (Row names keep the format=packed segment
// of the retired raw-vs-packed ablation so they stay comparable with the
// historical BENCH_PR*.json records, in git history at 1b3f9ea.)
func BenchmarkSnapshotWrite(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("format=packed/n=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			st := strabon.NewStore()
			st.AddAll(benchTriples(n))
			sn := st.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			var path string
			for i := 0; i < b.N; i++ {
				var err error
				if path, err = writeSnapshot(dir, sn, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if fi, err := os.Stat(path); err == nil {
				b.ReportMetric(float64(fi.Size()), "disk-bytes")
			}
		})
	}
}

// BenchmarkSnapshotLoad measures the restart fast path: opening a
// snapshot and building the executor's read view — i.e. time until
// the first vectorized query can be answered. The packed format verifies
// checksums and maps the file, deferring column decode to first touch.
// (Store-level mutation indexes are lazy; the first UPDATE pays for
// them, not the restart.)
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("format=packed/n=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			st := strabon.NewStore()
			st.AddAll(benchTriples(n))
			path, err := writeSnapshot(dir, st.Snapshot(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := readSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != st.Len() {
					b.Fatalf("loaded %d of %d", got.Len(), st.Len())
				}
				if got.Snapshot().NRows() != st.Len() {
					b.Fatal("read view incomplete")
				}
			}
		})
	}
}

// BenchmarkSnapshotScanCold measures open + one full predicate-bound
// scan from a freshly opened snapshot — the "first query after
// restart" latency. This pays the posting-list and column-block decodes
// the load benchmark deferred; the resident metric reports how many heap
// bytes the scan materialised (the mapped store's working set).
func BenchmarkSnapshotScanCold(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("format=packed/n=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			st := strabon.NewStore()
			st.AddAll(benchTriples(n))
			pred := rdf.IRI(exNS + "hasConfidence")
			predID, ok := st.Snapshot().Lookup(pred)
			if !ok {
				b.Fatal("bench predicate missing")
			}
			wantCard := st.Snapshot().Cardinality(strabon.TriplePattern{P: predID})
			path, err := writeSnapshot(dir, st.Snapshot(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var resident int64
			for i := 0; i < b.N; i++ {
				got, _, err := readSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				sn := got.Snapshot()
				id, ok := sn.Lookup(pred)
				if !ok {
					b.Fatal("predicate missing after load")
				}
				rows := sn.MatchRows(strabon.TriplePattern{P: id}, nil)
				if len(rows) != wantCard {
					b.Fatalf("scan matched %d rows, want %d", len(rows), wantCard)
				}
				var sum uint64
				for _, r := range rows {
					sum += sn.ColID(2, r)
				}
				if sum == 0 {
					b.Fatal("scan produced no object ids")
				}
				resident = got.ResidentEstimate()
			}
			b.StopTimer()
			b.ReportMetric(float64(resident), "resident-bytes")
		})
	}
}

// BenchmarkRecoveryReplay measures WAL-only recovery (no snapshot):
// scanning, CRC-checking and re-applying one record per triple.
func BenchmarkRecoveryReplay(b *testing.B) {
	const n = 20_000
	dir := b.TempDir()
	m, st, err := Open(Options{Dir: dir, SyncMode: SyncNone, NoCheckpointOnClose: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range benchTriples(n) {
		st.Add(t)
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m2, got, err := Open(Options{Dir: dir, SyncMode: SyncNone, NoCheckpointOnClose: true})
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != n {
			b.Fatalf("recovered %d of %d", got.Len(), n)
		}
		m2.Close()
	}
}

// TestBenchTriplesShape keeps the generator honest (and exercises the
// snapshot roundtrip over a mid-sized store in ordinary test runs).
func TestBenchTriplesShape(t *testing.T) {
	ts := benchTriples(5000)
	if len(ts) != 5000 {
		t.Fatalf("generator returned %d triples", len(ts))
	}
	st := strabon.NewStore()
	if added := st.AddAll(ts); added != 5000 {
		t.Fatalf("generator produced %d duplicates", 5000-added)
	}
	dir := t.TempDir()
	path, err := writeSnapshot(dir, st.Snapshot(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, seq, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || got.Len() != st.Len() {
		t.Fatalf("roundtrip: seq=%d len=%d want len=%d", seq, got.Len(), st.Len())
	}
	var a, bb bytes.Buffer
	_ = rdf.WriteNTriples(&a, st.Triples())
	_ = rdf.WriteNTriples(&bb, got.Triples())
	if !bytes.Equal(a.Bytes(), bb.Bytes()) {
		t.Fatal("snapshot roundtrip changed triple serialisation")
	}
	os.RemoveAll(dir)
}
