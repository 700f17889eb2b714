package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/colpack"
	"repro/internal/endpoint"
	"repro/internal/geo"
	"repro/internal/noa"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// Layer metrics: each layer's public functions timed on their own, on
// private copies of the golden directory. Every figure is a mean over a
// fixed number of calls (a median where one call is the whole cost), so
// that the work, if not the time, is the same on every run of a seed.

const layerReps = 200

// meanOf times n calls of fn and returns the mean duration in unit
// (time.Microsecond → µs).
func meanOf(n int, unit time.Duration, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n) / float64(unit)
}

// medianOf times each of n calls of fn and returns the median.
func medianOf(n int, unit time.Duration, fn func(i int)) float64 {
	vs := make([]float64, n)
	for i := range vs {
		start := time.Now()
		fn(i)
		vs[i] = float64(time.Since(start)) / float64(unit)
	}
	return Median(vs)
}

// newestSnapshot finds the packed snapshot file of a data directory.
func newestSnapshot(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(names) == 0 {
		return "", fmt.Errorf("no snapshot in %s (%v)", dir, err)
	}
	sort.Strings(names) // fixed-width hex sequence numbers sort by age
	return names[len(names)-1], nil
}

// windowBoxes are the envelopes spatial probes search: the same 0.3°
// boxes the window queries use.
func windowBoxes(seed int64, n int) []geo.Envelope {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Envelope, n)
	for i := range out {
		out[i] = windowBox(rng)
	}
	return out
}

// productPatterns are two-bound triple patterns (?h derivedFromProduct
// <product>), which make MatchRows filter a posting list.
func productPatterns(sn *strabon.Snapshot, sc Scale, n int) ([]strabon.TriplePattern, error) {
	p, err := sn.LookupID(rdf.IRI(noa.PropDerived))
	if err != nil {
		return nil, fmt.Errorf("predicate %s: %w", noa.PropDerived, err)
	}
	out := make([]strabon.TriplePattern, n)
	for i := range out {
		o, err := sn.LookupID(noa.ProductIRI(ProductID(i % sc.Products)))
		if err != nil {
			return nil, fmt.Errorf("product %d: %w", i, err)
		}
		out[i] = strabon.TriplePattern{P: p, O: o}
	}
	return out, nil
}

func matchRowsUs(sn *strabon.Snapshot, pats []strabon.TriplePattern) float64 {
	var buf []int32
	return meanOf(len(pats), time.Microsecond, func(i int) { sn.MatchRows(pats[i], &buf) })
}

func (c *Config) layerMetrics(out *Outcome, g *Golden, or *Oracle, reads *Verifier) error {
	M := out.Metrics
	ctx := context.Background()
	fleet := NewFleet(c.Seed, "layers")
	observations := make([][]rdf.Triple, layerReps)
	for i := range observations {
		observations[i] = fleet.Next().Triples
	}

	// --- stsparql: evaluation per class on the mapped store, the
	// operators' row counts from EXPLAIN, and an update on a twin with
	// no journal.
	var evalUs [numClasses][]float64
	var examined, returned float64
	for i := 0; i < len(reads.Pool) && i < layerReps; i++ {
		r := &reads.Pool[i]
		q, err := stsparql.ParseQuery(r.Text)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := or.Engine.EvalContext(ctx, q); err != nil {
			return err
		}
		evalUs[r.Class] = append(evalUs[r.Class], float64(time.Since(start))/1e3)
		if i < layerReps/4 {
			plan, err := or.Engine.Query("EXPLAIN " + r.Text)
			if err != nil {
				return err
			}
			ex, ret := planRows(plan)
			examined, returned = examined+ex, returned+ret
		}
	}
	M["stsparql.eval_window_us"] = mean(evalUs[ClassWindow])
	M["stsparql.eval_catalogue_us"] = mean(evalUs[ClassCatalogue])
	M["stsparql.eval_join_us"] = mean(evalUs[ClassJoin])
	M["stsparql.rows_examined_per_result"] = ratio(examined, returned)

	// --- strabon and colpack on the mapped snapshot.
	mapped := or.Engine.Store()
	msn := mapped.Snapshot()
	if !msn.Mapped() {
		return fmt.Errorf("the oracle's store is %q, not mapped", mapped.StorageMode())
	}
	pats, err := productPatterns(msn, c.Scale, layerReps)
	if err != nil {
		return err
	}
	boxes := windowBoxes(c.Seed, layerReps)
	M["strabon.snapshot_warm_us"] = meanOf(10*layerReps, time.Microsecond, func(int) { mapped.Snapshot() })
	M["colpack.mapped_match_rows_us"] = matchRowsUs(msn, pats)
	M["strabon.resident_mapped_mb"] = float64(mapped.ResidentEstimate()) / (1 << 20)

	snapPath, err := newestSnapshot(g.Dir)
	if err != nil {
		return err
	}
	var reader *colpack.Reader
	M["colpack.open_ms"] = medianOf(5, time.Millisecond, func(int) {
		if reader != nil {
			reader.Close()
		}
		reader, err = colpack.Open(snapPath)
	})
	if err != nil {
		return err
	}
	M["colpack.bytes_per_triple"] = float64(reader.SizeBytes()) / float64(max(reader.NRows(), 1))
	reader.Close()

	// --- strabon on the heap: the first write to a mapped store
	// materialises it; after that every write costs the next reader a
	// whole-snapshot rebuild.
	var heap *strabon.Store
	M["strabon.materialize_ms"] = medianOf(3, time.Millisecond, func(i int) {
		r, oerr := colpack.Open(snapPath)
		if oerr == nil {
			heap, oerr = strabon.RestorePacked(r)
		}
		if oerr != nil {
			err = oerr
			return
		}
		heap.AddAll(observations[i])
	})
	if err != nil {
		return err
	}
	// The rebuild alone: the AddAll that forces it is outside the clock.
	rebuilds := make([]float64, 9)
	for i := range rebuilds {
		heap.AddAll(observations[3+i])
		start := time.Now()
		heap.Snapshot()
		rebuilds[i] = float64(time.Since(start)) / 1e6
	}
	M["strabon.snapshot_rebuild_ms"] = Median(rebuilds)
	hsn := heap.Snapshot()
	M["strabon.match_rows_us"] = matchRowsUs(hsn, pats)
	M["strabon.spatial_candidates_us"] = meanOf(len(boxes), time.Microsecond, func(i int) { hsn.SpatialCandidates(boxes[i]) })
	ids := make([]uint64, 0, 4096)
	for row := 0; row < hsn.NRows() && len(ids) < cap(ids); row++ {
		ids = append(ids, hsn.ColID(2, int32(row)))
	}
	terms := make([]rdf.Term, len(ids))
	M["strabon.decode_all_ns_per_term"] = meanOf(20, time.Nanosecond, func(int) { hsn.DecodeAll(ids, terms) }) / float64(len(ids))
	M["strabon.addall_us_per_triple"] = meanOf(layerReps-30, time.Microsecond, func(i int) { heap.AddAll(observations[30+i]) }) / triplesPerObservation
	M["strabon.resident_heap_mb"] = float64(heap.ResidentEstimate()) / (1 << 20)

	update := stsparql.New(heap)
	inserts := NewInserter(c.Seed, "layers-update")
	updates := make([]*stsparql.Query, layerReps)
	for i := range updates {
		if updates[i], err = stsparql.ParseQuery(inserts.Next().Text); err != nil {
			return err
		}
	}
	M["stsparql.update_eval_us"] = meanOf(layerReps, time.Microsecond, func(i int) {
		if _, uerr := update.EvalContext(ctx, updates[i]); uerr != nil {
			err = uerr
		}
	})
	if err != nil {
		return err
	}

	// --- geo and rtree: the predicates behind the window and join
	// filters, and the index search behind spatial_candidates.
	geomIDs := hsn.GeomIDs()
	var polys []geo.Geometry
	var points []geo.Geometry
	items := make([]rtree.Item, 0, len(geomIDs))
	for _, id := range geomIDs {
		sv, ok := hsn.Geometry(id)
		if !ok {
			continue
		}
		items = append(items, rtree.Item{Box: sv.Geom.Envelope(), ID: id})
		switch sv.Geom.(type) {
		case geo.Polygon:
			if len(polys) < layerReps {
				polys = append(polys, sv.Geom)
			}
		case geo.Point:
			if len(points) < layerReps {
				points = append(points, sv.Geom)
			}
		}
	}
	if len(polys) == 0 || len(points) == 0 {
		return fmt.Errorf("the dataset has %d polygons and %d points to probe geo with", len(polys), len(points))
	}
	M["geo.intersects_ns"] = meanOf(10*layerReps, time.Nanosecond, func(i int) {
		geo.Intersects(polys[i%len(polys)], boxes[i%len(boxes)].ToPolygon())
	})
	M["geo.distance_ns"] = meanOf(10*layerReps, time.Nanosecond, func(i int) {
		geo.GeodesicDistanceMeters(polys[i%len(polys)], points[i%len(points)])
	})
	tree := rtree.BulkLoad(items, 0)
	var hits []uint64
	M["rtree.search_us"] = meanOf(len(boxes), time.Microsecond, func(i int) { hits = tree.Search(boxes[i], hits[:0]) })

	// --- rdf: the N-Triples parser /ingest runs per line.
	lines := bytes.Split(g.Dataset.NTriples[:min(len(g.Dataset.NTriples), 4<<20)], []byte{'\n'})
	lines = lines[:len(lines)-1] // the cut may have split the last line
	M["rdf.parse_ntriples_ns_per_triple"] = meanOf(len(lines), time.Nanosecond, func(i int) {
		if _, perr := rdf.ParseTripleLine(string(lines[i])); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}

	// --- persist: the journal's two halves on a twin whose store is not
	// attached (so LogAdd is the only writer), then a checkpoint.
	dir, err := c.Env.TempDir("journal")
	if err != nil {
		return err
	}
	if err := CopyDir(g.Dir, dir); err != nil {
		return err
	}
	m, _, err := persist.Open(persist.Options{Dir: dir, SyncMode: persist.SyncAlways, CheckpointBytes: -1, NoCheckpointOnClose: true, NoJournal: true})
	if err != nil {
		return err
	}
	defer m.Close()
	walBefore := m.Stats().WALBytes
	var logAdd, await time.Duration
	for _, obs := range observations {
		t0 := time.Now()
		commit, lerr := m.LogAdd(obs)
		t1 := time.Now()
		if lerr == nil {
			lerr = commit.Await()
		}
		if lerr != nil {
			return fmt.Errorf("journal: %w", lerr)
		}
		logAdd += t1.Sub(t0)
		await += time.Since(t1)
	}
	M["persist.log_add_us"] = float64(logAdd) / layerReps / 1e3
	M["persist.commit_wait_us"] = float64(await) / layerReps / 1e3
	M["persist.wal_bytes_per_triple"] = float64(m.Stats().WALBytes-walBefore) / (layerReps * triplesPerObservation)
	// The checkpoint of a store that has been written to: heap rows in,
	// packed file out.
	jm, jst, err := c.twin(g, "checkpoint")
	if err != nil {
		return err
	}
	defer jm.Close()
	jst.AddAll(observations[0])
	start := time.Now()
	if err := jm.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	M["persist.checkpoint_ms"] = float64(time.Since(start)) / 1e6

	// --- endpoint: one /ingest chunk through the in-process handler of
	// the same journalled twin.
	srv, err := endpoint.NewServer(endpoint.Config{Engine: stsparql.New(jst), Store: jst})
	if err != nil {
		return err
	}
	defer srv.Close()
	const chunk = 8192
	body, statements := NewFleet(c.Seed, "layers-ingest").Archive(chunk / triplesPerObservation)
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start = time.Now()
	srv.Handler().ServeHTTP(rec, req)
	M["endpoint.ingest_us_per_triple"] = float64(time.Since(start)) / 1e3 / float64(statements)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process /ingest: HTTP %d: %s", rec.Code, firstBytes(rec.Body.Bytes(), 200))
	}
	return nil
}

// planRows sums the rows= figures of an EXPLAIN result's operator lines
// (everything the plan touched) and reads the final projection's (what
// it returned).
func planRows(plan *stsparql.Result) (examined, returned float64) {
	for i, b := range plan.Bindings {
		line := b["plan"].Value
		j := strings.LastIndex(line, "rows=")
		if j < 0 {
			continue
		}
		field := line[j+len("rows="):]
		if k := strings.IndexByte(field, ' '); k >= 0 {
			field = field[:k]
		}
		n, err := strconv.ParseFloat(field, 64)
		if err != nil {
			continue
		}
		if i == len(plan.Bindings)-1 {
			returned = n
		} else {
			examined += n
		}
	}
	return examined, returned
}
