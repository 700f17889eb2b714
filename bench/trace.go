package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/endpoint"
	"repro/internal/persist"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// The traced pass. End-to-end numbers come from the untraced child
// server; this is a separate, single-connection, fixed-count pass that
// replays the first traceRequests operations of a workload's stream at
// each layer boundary this benchmark can reach from outside:
//
//	wire                the request against the child server
//	endpoint.handler    Server.Handler().ServeHTTP in this process
//	stsparql.parse      stsparql.ParseQuery on the request text
//	stsparql.eval       Engine.EvalContext, as the handler calls it
//	strabon.snapshot    Store.Snapshot(), taken at the start of a read's eval
//
// declared as wire ⊃ endpoint.handler ⊃ {stsparql.parse, stsparql.eval
// ⊃ strabon.snapshot}. A layer's self time is its span minus its
// declared children of the same request. Spans are kept in memory and
// written to bench/out/trace.<workload>.jsonl at the end.

const (
	traceRequests = 400
	// liveWindow is how long the traced pass drives the real workload
	// (all connections, timers and checkpoints running) to read the
	// server's /stats counters under it.
	liveWindow = 6 * time.Second
)

// Span is one timed interval of one request.
type Span struct {
	Req    int    `json:"req"`
	Span   string `json:"span"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

var spanParent = map[string]string{
	"wire":             "",
	"endpoint.handler": "wire",
	"stsparql.parse":   "endpoint.handler",
	"stsparql.eval":    "endpoint.handler",
	"strabon.snapshot": "stsparql.eval",
}

// Tracer collects spans in memory.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) add(req int, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{req, name, spanParent[name], int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// time runs fn as span name of request req.
func (t *Tracer) time(req int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(req, name, start, time.Now())
}

// perRequest returns span name's total duration per request, in µs.
func (t *Tracer) perRequest(name string, n int) []float64 {
	out := make([]float64, n)
	for _, s := range t.spans {
		if s.Span == name {
			out[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

func (t *Tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// tracedEngine is the in-process server's engine: the real one, with
// the eval and snapshot boundaries recorded.
type tracedEngine struct {
	inner *stsparql.Engine
	tr    *Tracer
	req   int  // the request being replayed
	quiet bool // warm-up: evaluate without recording
}

func (e *tracedEngine) EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error) {
	if e.quiet {
		return e.inner.EvalContext(ctx, q)
	}
	start := time.Now()
	switch q.Form {
	case stsparql.FormInsertData, stsparql.FormDeleteData, stsparql.FormModify:
	default:
		// The engine takes the store's snapshot first thing; taking it
		// here times a rebuild at its own boundary and leaves the engine
		// a cached one.
		e.tr.time(e.req, "strabon.snapshot", func() { e.inner.Store().Snapshot() })
	}
	res, err := e.inner.EvalContext(ctx, q)
	e.tr.add(e.req, "stsparql.eval", start, time.Now())
	return res, err
}

// twin opens a private copy of the golden directory in this process,
// journalled like the server's but with no timers running.
func (c *Config) twin(g *Golden, name string) (*persist.Manager, *strabon.Store, error) {
	dir, err := c.Env.TempDir(name)
	if err != nil {
		return nil, nil, err
	}
	if err := CopyDir(g.Dir, dir); err != nil {
		return nil, nil, err
	}
	return persist.Open(persist.Options{Dir: dir, SyncMode: persist.SyncAlways, CheckpointBytes: -1, NoCheckpointOnClose: true})
}

// traceOps is the head of a workload's request stream.
func (s *session) traceOps() []Op {
	c := s.cfg
	ops := make([]Op, 0, traceRequests)
	take := func(next func() Op) {
		for len(ops) < traceRequests {
			ops = append(ops, next())
		}
	}
	switch s.out.Workload {
	case CatalogueCold:
		take(s.cyclic(identity(len(s.reads.Pool))))
	case CatalogueHot:
		take(s.cyclic(ZipfOrder(c.Seed, hotSetSize, 1<<16)))
	case FleetIngest:
		take(s.inserts("trace"))
	case ObservatoryMixed:
		for _, ev := range Schedule(time.Minute, s.mixedStreams("trace")...) {
			if len(ops) == traceRequests {
				break
			}
			ops = append(ops, ev.Op)
		}
	}
	return ops
}

// Trace is the traced, per-layer pass of one workload.
func (c *Config) Trace(workload string, g *Golden, or *Oracle, reads *Verifier) (*Outcome, error) {
	tr := newTracer()

	// 1. The real workload for liveWindow, for the counters that depend
	// on concurrency and timers; then SIGKILL and an in-process recovery.
	live, err := c.open(g, workload, reads)
	if err != nil {
		return nil, err
	}
	defer live.close()
	out := live.out
	if err := live.liveCounters(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}

	// 2. wire: the stream's head, one connection, against a fresh child.
	s, err := c.open(g, workload, reads)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.out = out
	s.client.Close()
	s.client = NewClient(s.srv.URL, 1)
	ops := s.traceOps()
	hot := workload == CatalogueHot
	if hot {
		if err := s.fillCache(); err != nil {
			return nil, err
		}
	}
	before := s.stats()
	var buf bytes.Buffer
	var rows, size int
	for i, op := range ops {
		var status int
		var err error
		tr.time(i, "wire", func() { status, err = s.client.Do(op.Req, &buf) })
		n := 0
		if err == nil {
			n, err = s.check(0, op, status, buf.Bytes())
		}
		out.check(err)
		if op.Req.Class != ClassInsert {
			rows += n
			size += buf.Len()
		}
	}
	after := s.stats()
	// Counts at the wire boundary: one client and no timers, so they
	// must repeat exactly for a seed.
	out.Info["count.requests"] = float64(len(ops))
	out.Info["count.result_rows"] = float64(rows)
	out.Info["count.response_bytes"] = float64(size)
	out.Info["count.cache_hits"] = float64(after.Cache.Hits - before.Cache.Hits)
	out.Info["count.cache_misses"] = float64(after.Cache.Misses - before.Cache.Misses)
	out.Info["count.wal_records"] = float64(after.Persistence.GroupRecords - before.Persistence.GroupRecords)
	out.Info["count.fsyncs"] = float64(after.Persistence.GroupFsyncs - before.Persistence.GroupFsyncs)
	out.Metrics["stsparql.result_rows"] = float64(rows) / float64(max(len(ops), 1))
	out.Metrics["endpoint.resp_bytes_per_row"] = float64(size) / float64(max(rows, 1))
	s.close()

	// 3. endpoint.handler ⊃ stsparql.eval ⊃ strabon.snapshot in this
	// process, and stsparql.parse on its own.
	m, st, err := c.twin(g, "handler")
	if err != nil {
		return nil, err
	}
	defer m.Close()
	eng := &tracedEngine{inner: stsparql.New(st), tr: tr}
	srv, err := endpoint.NewServer(endpoint.Config{Engine: eng, Store: st})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	handler := srv.Handler()
	serve := func(op Op) *httptest.ResponseRecorder {
		var req *http.Request
		if op.Req.Class == ClassInsert {
			req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(op.Req.Text))
			req.Header.Set("Content-Type", "application/sparql-update")
		} else {
			req = httptest.NewRequest(http.MethodGet, op.Req.Path, nil)
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}
	if hot {
		eng.quiet = true
		for i := 0; i < hotSetSize; i++ {
			serve(Op{Req: &reads.Pool[i], Index: i})
		}
		eng.quiet = false
	}
	for i, op := range ops {
		eng.req = i
		var rec *httptest.ResponseRecorder
		tr.time(i, "endpoint.handler", func() { rec = serve(op) })
		_, err := s.check(0, op, rec.Code, rec.Body.Bytes())
		out.check(err)
		tr.time(i, "stsparql.parse", func() { _, err = stsparql.ParseQuery(op.Req.Text) })
		if err != nil {
			return nil, err
		}
	}

	n := len(ops)
	wire, handlerUs := tr.perRequest("wire", n), tr.perRequest("endpoint.handler", n)
	parse, eval := tr.perRequest("stsparql.parse", n), tr.perRequest("stsparql.eval", n)
	snap := tr.perRequest("strabon.snapshot", n)
	self := func(span []float64, children ...[]float64) float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = span[i]
			for _, ch := range children {
				d[i] -= ch[i]
			}
		}
		return mean(d)
	}
	out.Metrics["endpoint.handler_us"] = mean(handlerUs)
	out.Metrics["endpoint.self_us"] = self(handlerUs, parse, eval)
	out.Metrics["endpoint.wire_us"] = self(wire, handlerUs)
	out.Metrics["stsparql.parse_us"] = mean(parse)
	// Shares, not times: both are exactly zero where the layer is not
	// reached at all (no evaluation on catalogue_hot, no snapshot for an
	// insert).
	out.Metrics["stsparql.eval_share_of_handler"] = self(eval, snap) / mean(handlerUs)
	out.Metrics["strabon.snapshot_share_of_handler"] = mean(snap) / mean(handlerUs)
	sort.Float64s(wire)
	out.Info["wire_traced_p50_ms"] = Percentile(wire, 50) / 1e3

	// 4. The layers on their own.
	if err := c.layerMetrics(out, g, or, reads); err != nil {
		return nil, fmt.Errorf("layer metrics: %w", err)
	}
	out.Metrics["gen.fail_ratio"] = float64(out.Failed) / float64(max(out.Attempted, 1))
	return out, tr.write(filepath.Join(c.Env.OutDir, "trace."+workload+".jsonl"))
}

// liveCounters drives the real workload for liveWindow and reads what
// only a concurrent, timer-driven run shows: cache hit ratio, refusals,
// group-commit batching, checkpoints and the generator's own lag; then
// kills the server and recovers its directory in this process.
func (s *session) liveCounters() error {
	c, out := s.cfg, s.out
	run, err := s.driver()
	if err != nil {
		return err
	}
	run(c.Warm / 2)

	// A poller counts checkpoints: /stats only shows the latest.
	stop, polled := make(chan struct{}), make(chan []float64)
	go func() {
		var took []float64
		last := int64(0)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			if st, err := s.srv.Stats(); err == nil && st.Persistence.LastCheckpointUnixMs != last {
				if last != 0 {
					took = append(took, float64(st.Persistence.LastCheckpointMs))
				}
				last = st.Persistence.LastCheckpointUnixMs
			}
			select {
			case <-stop:
				polled <- took
				return
			case <-tick.C:
			}
		}
	}()
	before, clock := s.stats(), startCPUClock()
	res := run(liveWindow)
	share := clock.share()
	after := s.stats()
	close(stop)
	checkpoints := <-polled
	out.count(res)

	out.Metrics["endpoint.cache_hit_ratio"] = hitRatio(before, after)
	out.Metrics["endpoint.rejected"] = float64(after.Rejected() - before.Rejected())
	records := after.Persistence.GroupRecords - before.Persistence.GroupRecords
	batches := after.Persistence.GroupBatches - before.Persistence.GroupBatches
	out.Metrics["persist.fsyncs_per_write"] = ratio(float64(after.Persistence.GroupFsyncs-before.Persistence.GroupFsyncs), float64(records))
	out.Metrics["persist.group_batch_mean"] = ratio(float64(records), float64(batches))
	out.Metrics["persist.checkpoints"] = float64(len(checkpoints))
	out.Info["persist.live_checkpoint_ms"] = mean(checkpoints)
	out.Metrics["gen.cpu_share"] = share
	out.Metrics["gen.sched_lag_p99_ms"] = lagP99(res)

	// Crash and recover in this process: persist.Open on a copy of the
	// killed server's directory.
	dir := s.srv.Dir
	s.srv.Kill()
	s.srv = nil
	copyDir, err := c.Env.TempDir("recover")
	if err != nil {
		return err
	}
	if err := CopyDir(dir, copyDir); err != nil {
		return err
	}
	start := time.Now()
	m, st, err := persist.Open(persist.Options{Dir: copyDir, CheckpointBytes: -1, NoCheckpointOnClose: true})
	if err != nil {
		return fmt.Errorf("recovering the killed server's directory: %w", err)
	}
	out.Metrics["persist.recovery_ms"] = float64(time.Since(start)) / 1e6
	out.Metrics["persist.replayed_records"] = float64(m.Stats().ReplayedRecords)
	want := s.g.Triples + triplesPerObservation*len(s.allAcked())
	if st.Len() < want {
		out.check(fmt.Errorf("recovered %d triples, fewer than the %d acknowledged", st.Len(), want))
	} else {
		out.check(nil)
	}
	return m.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
