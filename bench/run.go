package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Workload names, in the order BENCHMARK.json declares them.
const (
	CatalogueCold    = "catalogue_cold"
	CatalogueHot     = "catalogue_hot"
	FleetIngest      = "fleet_ingest"
	ObservatoryMixed = "observatory_mixed"
)

// Workloads lists every workload.
var Workloads = []string{CatalogueCold, CatalogueHot, FleetIngest, ObservatoryMixed}

const (
	// coldPoolSize is the number of distinct read texts the cold and
	// mixed streams walk cyclically: four times the server's 128-entry
	// result cache, so an LRU never holds the next one.
	coldPoolSize = 512
	// hotSetSize fits the result cache twice over.
	hotSetSize = 64
	// The open-loop schedule of observatory_mixed: window reads on a
	// fixed grid on one connection and, on the other, a product of
	// mixedProduct single-observation inserts after every
	// mixedReadsPerProduct-th read, its observations mixedSpacing apart
	// and all of them between two reads. One read in mixedReadsPerProduct
	// therefore pays the snapshot rebuild the product leaves behind, and
	// that share puts read_p95_ms inside the rebuild-paying group, in its
	// steady lower half (README, "observatory_mixed").
	mixedReadRate        = 40
	mixedReadsPerProduct = 14
	mixedProduct         = 8
	mixedSpacing         = 1500 * time.Microsecond
	mixedProductOffset   = 2500 * time.Microsecond // after the read before it is due
	// verifyEvery is the read-your-writes sampling step.
	verifyEvery = 50
)

// Config is one benchmark invocation's settings.
type Config struct {
	Env     *Env
	Seed    int64
	Scale   Scale
	Measure time.Duration // the measured window of a workload
	Warm    time.Duration // unmeasured warm-up before it
	Probe   time.Duration // the cross-probe after it (see README)
	Setups  int           // set-up repetitions; setup_s is their median
	Conns   int           // generator connections: min(nproc, 2)
	// CheckpointEvery is the child server's -checkpoint-every: a third
	// of the measured window, so a write run sees three cycles. (Not on
	// observatory_mixed: see flags.)
	CheckpointEvery time.Duration
	Log             io.Writer
}

// DefaultConfig returns the settings of a full-scale run measuring for
// the given number of seconds.
func DefaultConfig(env *Env, seed int64, seconds float64) Config {
	measure := time.Duration(seconds * float64(time.Second))
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	every := (measure / 3).Round(time.Second)
	if every < time.Second {
		every = time.Second
	}
	return Config{
		Env: env, Seed: seed, Scale: FullScale,
		Measure: measure, Warm: 2 * time.Second, Probe: 2 * time.Second,
		Setups: 5, Conns: conns, CheckpointEvery: every, Log: os.Stderr,
	}
}

func (c *Config) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, "teleios-bench: "+format+"\n", args...)
}

// flags are the child server's flags for a workload ("" for the set-up).
// observatory_mixed runs without timed checkpoints: one checkpoint stalls
// a fifth of a second of its schedule, and whether that is 1 % or 4 % of
// a window's reads decided read_p95_ms and rss_peak_mb (README,
// "Steadiness"). fleet_ingest is where checkpoints are measured.
func (c *Config) flags(workload string) []string {
	if workload == ObservatoryMixed {
		return ServerFlags(0)
	}
	return ServerFlags(c.CheckpointEvery)
}

// Golden is the loaded, checkpointed data directory every workload
// starts from a fresh copy of, with what setting it up cost.
type Golden struct {
	Dir          string
	Dataset      *Dataset
	Triples      int     // distinct triples in the store, per /stats
	SetupS       float64 // median over the set-up repetitions
	BulkTriplesS float64 // median bulk-load rate of the golden archive
	DiskBytes    int64
}

// Setup generates the dataset, bulk-loads it into an empty data
// directory through POST /ingest, stops the server gracefully (final
// packed checkpoint) and reboots it to the first 200 on /health. It does
// all of that cfg.Setups times and keeps the last directory.
func (c *Config) Setup() (*Golden, error) {
	g := &Golden{}
	var setups, rates []float64
	for i := 0; i < c.Setups; i++ {
		if g.Dir != "" {
			os.RemoveAll(g.Dir)
		}
		start := time.Now()
		g.Dataset = Generate(c.Seed, c.Scale)
		dir, err := c.Env.TempDir("golden")
		if err != nil {
			return nil, err
		}
		g.Dir = dir
		srv, err := c.Env.StartServer(dir, c.flags(""))
		if err != nil {
			return nil, err
		}
		client := NewClient(srv.URL, 1)
		rate, err := bulkLoad(client, g.Dataset.NTriples, g.Dataset.Triples)
		client.Close()
		if err != nil {
			return nil, fmt.Errorf("loading the golden dataset: %w", err)
		}
		st, err := srv.Stats()
		if err != nil {
			return nil, err
		}
		g.Triples = st.Store.Triples
		if err := srv.Stop(); err != nil {
			return nil, err
		}
		if srv, err = c.Env.StartServer(dir, c.flags("")); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		rates = append(rates, rate)
		st, err = srv.Stats()
		if err == nil && (st.Store.Triples != g.Triples || st.Persistence.StoreMode != "mapped" || st.Persistence.ReplayedRecords != 0) {
			err = fmt.Errorf("rebooted golden directory: %d triples (loaded %d), mode %q, %d WAL records replayed; want a mapped store and nothing to replay",
				st.Store.Triples, g.Triples, st.Persistence.StoreMode, st.Persistence.ReplayedRecords)
		}
		if stopErr := srv.Stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	g.SetupS, g.BulkTriplesS = Median(setups), Median(rates)
	var err error
	g.DiskBytes, err = DirBytes(g.Dir)
	c.logf("set-up ×%d: median %.3f s (%v), %d triples, bulk load %.0f triples/s, %d bytes on disk",
		c.Setups, g.SetupS, setups, g.Triples, g.BulkTriplesS, g.DiskBytes)
	return g, err
}

// bulkLoad posts an N-Triples archive to /ingest and returns the rate
// at which its statements became durable.
func bulkLoad(client *Client, body []byte, statements int) (triplesPerSecond float64, err error) {
	var buf bytes.Buffer
	start := time.Now()
	status, err := client.Post("/ingest", "application/n-triples", body, &buf)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	var reply struct{ Received, Added, Batches int }
	if status != 200 {
		return 0, fmt.Errorf("/ingest: HTTP %d: %s", status, firstBytes(buf.Bytes(), 300))
	}
	if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
		return 0, fmt.Errorf("/ingest reply: %w", err)
	}
	if reply.Received != statements {
		return 0, fmt.Errorf("/ingest received %d of %d statements", reply.Received, statements)
	}
	return float64(statements) / took.Seconds(), nil
}

// Outcome is one workload run's result.
type Outcome struct {
	Workload string `json:"workload"`
	// ServerFlags are the child server's flags besides -addr and -data-dir.
	ServerFlags []string           `json:"server_flags"`
	Metrics     map[string]float64 `json:"metrics"`
	Attempted   int                `json:"attempted"`
	Succeeded   int                `json:"succeeded"`
	Failed      int                `json:"failed"`
	// Problems lists wrong answers, failed checks and violated workload
	// premises (e.g. a cache hit on the cold workload); any entry makes
	// the run incorrect.
	Problems []string `json:"problems,omitempty"`
	// Info carries figures printed beside the metrics but not declared
	// in BENCHMARK.json: per-class latencies, sample counts, lag.
	Info map[string]float64 `json:"info,omitempty"`
}

func newOutcome(workload string) *Outcome {
	return &Outcome{Workload: workload, Metrics: map[string]float64{}, Info: map[string]float64{}}
}

// Correct reports whether every output checked out.
func (o *Outcome) Correct() bool { return o.Failed == 0 && len(o.Problems) == 0 }

func (o *Outcome) problemf(format string, args ...any) {
	if len(o.Problems) < 20 {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

// count folds a loop's samples into the attempted/failed totals.
func (o *Outcome) count(res *LoopResult) {
	for i := range res.Samples {
		o.Attempted++
		if res.Samples[i].OK {
			o.Succeeded++
		} else {
			o.Failed++
		}
	}
	for _, e := range res.Errors {
		o.problemf("%s", e)
	}
}

// check counts one verification step as an operation.
func (o *Outcome) check(err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.problemf("%v", err)
	} else {
		o.Succeeded++
	}
}

// readMetrics reports throughput and latency of a loop's verified
// reads. The tail is p95: on every workload it lies inside the slow
// group (the joins; the reads that follow a product), where p99 is that
// group's own tail and moves by ±40 % between runs on this sandbox. p99
// is printed beside it, unbounded.
func (o *Outcome) readMetrics(res *LoopResult) {
	lat := Latencies(res.Samples, isRead)
	o.Metrics["read_qps"] = float64(len(lat)) / res.Elapsed.Seconds()
	o.Metrics["read_p50_ms"] = Percentile(lat, 50)
	o.Metrics["read_p95_ms"] = Percentile(lat, 95)
	o.Info["read_p99_ms"] = Percentile(lat, 99)
	o.Info["read_samples"] = float64(len(lat))
	o.Info["read_supported_tail"] = SupportedTail(len(lat))
	for c := ClassWindow; c < ClassInsert; c++ {
		o.Info["read_"+c.String()+"_p50_ms"] = Percentile(Latencies(res.Samples, func(s *Sample) bool { return s.Class == c }), 50)
	}
}

// writeMetrics reports throughput and latency of a loop's acknowledged
// inserts. No write tail is bounded: a checkpoint that happens to fall
// on a product decides the mixed workload's p95 (7 ms or 35 ms), so the
// tails are printed, not gated.
func (o *Outcome) writeMetrics(res *LoopResult) {
	lat := Latencies(res.Samples, isWrite)
	o.Metrics["write_ops_s"] = float64(len(lat)) / res.Elapsed.Seconds()
	o.Metrics["write_p50_ms"] = Percentile(lat, 50)
	o.Info["write_p95_ms"] = Percentile(lat, 95)
	o.Info["write_p99_ms"] = Percentile(lat, 99)
	o.Info["write_samples"] = float64(len(lat))
	o.Info["write_supported_tail"] = SupportedTail(len(lat))
}

// session is one workload's child server with the state its streams
// and checks share.
type session struct {
	cfg    *Config
	g      *Golden
	out    *Outcome
	srv    *Server
	client *Client
	reads  *Verifier
	acked  [][]string // per connection: IRIs of acknowledged inserts
	extra  int        // observations bulk-loaded on top of the golden set
}

func (c *Config) open(g *Golden, workload string, reads *Verifier) (*session, error) {
	dir, err := c.Env.TempDir(workload)
	if err != nil {
		return nil, err
	}
	if err := CopyDir(g.Dir, dir); err != nil {
		return nil, err
	}
	srv, err := c.Env.StartServer(dir, c.flags(workload))
	if err != nil {
		return nil, err
	}
	out := newOutcome(workload)
	out.ServerFlags = c.flags(workload)
	return &session{
		cfg: c, g: g, out: out, srv: srv,
		client: NewClient(srv.URL, c.Conns), reads: reads,
		acked: make([][]string, c.Conns),
	}, nil
}

// close stops whatever server the session still has.
func (s *session) close() {
	s.client.Close()
	if s.srv != nil {
		s.srv.Kill()
		s.srv = nil
	}
}

// check is the session's Checker: reads against the oracle, inserts
// against the affected count the endpoint reports.
func (s *session) check(conn int, op Op, status int, body []byte) (int, error) {
	if op.Req.Class != ClassInsert {
		return s.reads.Check(op.Index, status, body)
	}
	want := fmt.Sprintf("{\"affected\":%d}", triplesPerObservation)
	if status != 200 || strings.TrimSpace(string(body)) != want {
		return 0, fmt.Errorf("insert of %s: HTTP %d %s", op.Req.IRI, status, firstBytes(body, 200))
	}
	s.acked[conn] = append(s.acked[conn], op.Req.IRI)
	return 0, nil
}

// cyclic returns a stream that walks order (indices into the verifier's
// pool) and wraps. The connections share its cursor: whichever is free
// takes the next text, so the texts leave in order.
func (s *session) cyclic(order []int) func() Op {
	var cursor atomic.Int64
	return func() Op {
		i := order[int(cursor.Add(1)-1)%len(order)]
		return Op{Req: &s.reads.Pool[i], Index: i}
	}
}

// inserts returns a stream of fresh observations, shared likewise.
func (s *session) inserts(name string) func() Op {
	in := NewInserter(s.cfg.Seed, name)
	return func() Op {
		r := in.Next()
		return Op{Req: &r, Index: -1}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// stats reads /stats; a failure is a problem of the run, not a reason
// to lose its other numbers.
func (s *session) stats() *ServerStats {
	st, err := s.srv.Stats()
	if err != nil {
		s.out.problemf("reading /stats: %v", err)
		return &ServerStats{}
	}
	return st
}

// hitRatio is the result cache's hit share between two snapshots.
func hitRatio(before, after *ServerStats) float64 {
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// selectColumn runs a one-variable SELECT and returns the column.
func (s *session) selectColumn(query, variable string) ([]string, error) {
	var buf bytes.Buffer
	status, err := s.client.Get("/sparql?format=json&query="+url.QueryEscape(query), &buf)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("HTTP %d: %s", status, firstBytes(buf.Bytes(), 200))
	}
	var doc sparqlJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		out = append(out, b[variable].Value)
	}
	return out, nil
}

func (s *session) allAcked() []string {
	var out []string
	for _, a := range s.acked {
		out = append(out, a...)
	}
	return out
}

// verifyWrites runs the write-side checks: a 1-in-verifyEvery sample of
// acknowledged observations is read back by IRI, the hotspot count
// equals golden + bulk-loaded + acknowledged, and /stats agrees.
func (s *session) verifyWrites() {
	acked := s.allAcked()
	for i := 0; i < len(acked); i += verifyEvery {
		preds, err := s.selectColumn(lookupByIRI(acked[i]), "p")
		if err == nil && len(preds) != triplesPerObservation {
			err = fmt.Errorf("%d of %d triples", len(preds), triplesPerObservation)
		}
		if err != nil {
			err = fmt.Errorf("read-your-writes: <%s>: %w", acked[i], err)
		}
		s.out.check(err)
	}
	wantObs := s.g.Dataset.Observations + s.extra + len(acked)
	hotspots, err := s.selectColumn(hotspotCountQuery, "h")
	if err == nil && len(hotspots) != wantObs {
		err = fmt.Errorf("%d hotspots, want %d golden + %d bulk-loaded + %d acknowledged",
			len(hotspots), s.g.Dataset.Observations, s.extra, len(acked))
	}
	s.out.check(err)
	err = nil
	if have, want := s.stats().Store.Triples, s.g.Triples+triplesPerObservation*(s.extra+len(acked)); have != want {
		err = fmt.Errorf("/stats store.triples = %d, want %d", have, want)
	}
	s.out.check(err)
}

// finish stops the server gracefully and reports the on-disk size per
// triple after its final checkpoint.
func (s *session) finish(triples int) error {
	err := s.srv.Stop()
	dir := s.srv.Dir
	s.srv = nil
	if err != nil {
		return err
	}
	size, err := DirBytes(dir)
	if err != nil {
		return err
	}
	s.out.Metrics["disk_bytes_per_triple"] = float64(size) / float64(triples)
	return nil
}

func (s *session) rss() {
	mb, err := s.srv.PeakRSSMiB()
	if err != nil {
		s.out.problemf("reading the server's VmHWM: %v", err)
	}
	s.out.Metrics["rss_peak_mb"] = mb
}

// cpuClock measures the load generator's own CPU use over a window, as
// a share of the machine's cores.
type cpuClock struct {
	at  time.Time
	cpu float64
}

func startCPUClock() cpuClock {
	cpu, _ := procCPUSeconds(os.Getpid())
	return cpuClock{time.Now(), cpu}
}

func (c cpuClock) share() float64 {
	cpu, _ := procCPUSeconds(os.Getpid())
	return (cpu - c.cpu) / time.Since(c.at).Seconds() / float64(runtime.NumCPU())
}

// Run executes one workload against a fresh copy of the golden
// directory. reads pairs the read pool with the oracle's answers.
func (c *Config) Run(workload string, g *Golden, reads *Verifier) (*Outcome, error) {
	s, err := c.open(g, workload, reads)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.out.Metrics["setup_s"] = g.SetupS
	s.out.Metrics["bulk_triples_s"] = g.BulkTriplesS
	switch workload {
	case CatalogueCold, CatalogueHot:
		err = s.catalogue()
	case FleetIngest:
		err = s.fleetIngest()
	case ObservatoryMixed:
		err = s.mixed()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return s.out, nil
}

// fillCache sends every hot text once.
func (s *session) fillCache() error {
	var buf bytes.Buffer
	for i := 0; i < hotSetSize; i++ {
		status, err := s.client.Do(&s.reads.Pool[i], &buf)
		if err == nil {
			_, err = s.reads.Check(i, status, buf.Bytes())
		}
		if err != nil {
			return fmt.Errorf("warming text %d: %w", i, err)
		}
	}
	return nil
}

// driver returns the function that drives the workload's main loop for
// a given time; successive calls continue the same request streams.
func (s *session) driver() (func(time.Duration) *LoopResult, error) {
	c := s.cfg
	closed := func(clients int, next func() Op) func(time.Duration) *LoopResult {
		return func(d time.Duration) *LoopResult { return RunClosed(s.client, clients, d, next, s.check) }
	}
	switch s.out.Workload {
	case CatalogueCold:
		// One client: these reads take milliseconds, and with two of them
		// beside the server's own workers on two shared cores a latency is
		// mostly time on the run queue, which a busy neighbour doubles
		// (README, "Steadiness").
		return closed(1, s.cyclic(identity(len(s.reads.Pool)))), nil
	case CatalogueHot:
		if err := s.fillCache(); err != nil {
			return nil, err
		}
		return closed(c.Conns, s.cyclic(ZipfOrder(c.Seed, hotSetSize, 1<<16))), nil
	case FleetIngest:
		return closed(c.Conns, s.inserts("client")), nil
	case ObservatoryMixed:
		streams := s.mixedStreams("mixed")
		return func(d time.Duration) *LoopResult {
			return RunOpen(s.client, c.Conns, Schedule(d, streams...), s.check)
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", s.out.Workload)
}

// measure runs the warm-up and the measured window and returns the
// window's samples with the server's /stats on either side of it.
func (s *session) measure() (res *LoopResult, before, after *ServerStats, err error) {
	run, err := s.driver()
	if err != nil {
		return nil, nil, nil, err
	}
	run(s.cfg.Warm)
	before, clock := s.stats(), startCPUClock()
	res = run(s.cfg.Measure)
	s.out.Info["gen_cpu_share"] = clock.share()
	after = s.stats()
	s.out.count(res)
	s.rss()
	if n := after.Rejected() - before.Rejected(); n != 0 {
		s.out.problemf("server refused %d requests", n)
	}
	s.out.Info["cache_hit_ratio"] = hitRatio(before, after)
	return res, before, after, nil
}

// catalogue is both read-only workloads: a closed loop of Conns clients
// walking the read pool (cold) or its Zipf-ranked head (hot).
func (s *session) catalogue() error {
	c, out := s.cfg, s.out
	res, before, after, err := s.measure()
	if err != nil {
		return err
	}
	out.readMetrics(res)
	out.Metrics["disk_bytes_per_triple"] = float64(s.g.DiskBytes) / float64(s.g.Triples)

	// The premises that make this workload measure what README says.
	ratio := out.Info["cache_hit_ratio"]
	if hot := out.Workload == CatalogueHot; hot && ratio < 0.98 {
		out.problemf("cache hit ratio %.3f on the hot workload, want >= 0.98", ratio)
	} else if !hot && ratio > 0.02 {
		out.problemf("cache hit ratio %.3f on the cold workload, want <= 0.02", ratio)
	}
	if after.Persistence.StoreMode != "mapped" || after.Persistence.WALSeq != before.Persistence.WALSeq {
		out.problemf("read-only workload left the store %q with %d new WAL records",
			after.Persistence.StoreMode, after.Persistence.WALSeq-before.Persistence.WALSeq)
	}

	// Cross-probe: the write metrics of a server that has only read so
	// far. Its very first write materialises the mapped store on the
	// heap; that one-off is reported on its own, not as a tenth of a 2 s
	// probe.
	inserts := s.inserts("probe")
	first := inserts()
	var buf bytes.Buffer
	start := time.Now()
	status, err := s.client.Do(first.Req, &buf)
	out.Info["first_write_ms"] = float64(time.Since(start)) / 1e6
	if err == nil {
		_, err = s.check(0, first, status, buf.Bytes())
	}
	out.check(err)
	probe := RunClosed(s.client, c.Conns, c.Probe, inserts, s.check)
	out.count(probe)
	out.writeMetrics(probe)
	s.verifyWrites()
	err = s.srv.Stop()
	s.srv = nil
	return err
}

// fleetIngest is the write-only workload: one bulk archive, then a
// closed loop of single-observation inserts, then a crash.
func (s *session) fleetIngest() error {
	c, out := s.cfg, s.out

	// Phase A: one connection, fixed work.
	archive, statements := NewFleet(c.Seed, "archive").Archive(c.Scale.FleetArchive)
	rate, err := bulkLoad(s.client, archive, statements)
	out.check(err)
	if err != nil {
		return err
	}
	s.extra = c.Scale.FleetArchive
	out.Metrics["bulk_triples_s"] = rate

	// Phase B: closed loop of inserts.
	res, before, after, err := s.measure()
	if err != nil {
		return err
	}
	out.writeMetrics(res)
	out.Info["fsyncs_per_write"] = ratio(
		float64(after.Persistence.GroupFsyncs-before.Persistence.GroupFsyncs),
		float64(after.Persistence.GroupRecords-before.Persistence.GroupRecords))
	s.verifyWrites()

	// Crash: SIGKILL, restart, and every acknowledged observation must
	// still be there.
	dir := s.srv.Dir
	s.srv.Kill()
	restart := time.Now()
	if s.srv, err = c.Env.StartServer(dir, c.flags(FleetIngest)); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	out.Info["restart_after_kill_ms"] = float64(time.Since(restart)) / 1e6
	s.client.Close()
	s.client = NewClient(s.srv.URL, c.Conns)
	out.check(s.verifyDurable())

	// Cross-probe: the read metrics of a server that has only written.
	// The first reads after the restart build the snapshot, the R-tree
	// and the planner's statistics; they are warm-up. One client, so that
	// a latency is a read's own cost on the 600 MB heap store and not
	// also its neighbour's: with two, the median sat between "alone" and
	// "beside a join" and moved by 13-20 % from run to run, with one by 3 %.
	reads := s.cyclic(identity(len(s.reads.Pool)))
	RunClosed(s.client, 1, c.Warm/2, reads, s.check)
	probe := RunClosed(s.client, 1, 2*c.Probe, reads, s.check)
	out.count(probe)
	out.readMetrics(probe)
	return s.finish(s.g.Triples + triplesPerObservation*(s.extra+len(s.allAcked())))
}

// verifyDurable checks that the restarted server holds every bulk-loaded
// and every acknowledged observation.
func (s *session) verifyDurable() error {
	have, err := s.selectColumn(fleetIRIsQuery, "h")
	if err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	present := make(map[string]bool, len(have))
	for _, iri := range have {
		present[iri] = true
	}
	missing := 0
	for _, iri := range s.allAcked() {
		if !present[iri] {
			missing++
		}
	}
	if want := s.extra + len(s.allAcked()); missing > 0 || len(have) < want {
		return fmt.Errorf("after SIGKILL and restart %d acknowledged observations are missing (%d fleet hotspots present, want %d)",
			missing, len(have), want)
	}
	return nil
}

// mixedStreams are the two fixed-rate components of observatory_mixed.
func (s *session) mixedStreams(insertStream string) []RateStream {
	// Reads are the window class only: a window costs ~1.5 ms, so the one
	// slow thing a read can meet is the snapshot rebuild a product leaves
	// behind, and the one thing a product can wait for is a short read.
	var windows []int
	for i := range s.reads.Pool {
		if s.reads.Pool[i].Class == ClassWindow {
			windows = append(windows, i)
		}
	}
	return []RateStream{
		{PerSecond: mixedReadRate, Next: s.cyclic(windows)},
		{PerSecond: float64(mixedReadRate*mixedProduct) / mixedReadsPerProduct, Burst: mixedProduct,
			Spacing: mixedSpacing, Offset: mixedProductOffset, Next: s.inserts(insertStream)},
	}
}

// lagP99 is how late, at p99, the generator itself sent a loop's
// requests, in ms.
func lagP99(res *LoopResult) float64 {
	lags := make([]float64, len(res.Samples))
	for i := range res.Samples {
		lags[i] = float64(res.Samples[i].Lag) / 1e6
	}
	sort.Float64s(lags)
	return Percentile(lags, 99)
}

// mixed is the open-loop workload: window reads and whole products of
// observation inserts on one fixed schedule.
func (s *session) mixed() error {
	c, out := s.cfg, s.out
	res, _, _, err := s.measure()
	if err != nil {
		return err
	}
	out.readMetrics(res)
	out.writeMetrics(res)
	lag := lagP99(res)
	out.Info["sched_lag_p99_ms"] = lag
	if lag > 5 {
		c.logf("INVALID RUN: the generator itself ran %.2f ms late at p99 (limit 5 ms); the latencies above are the generator's, not the server's", lag)
	}
	if ratio := out.Info["cache_hit_ratio"]; ratio > 0.02 {
		out.problemf("cache hit ratio %.3f on the mixed workload, want <= 0.02", ratio)
	}
	s.verifyWrites()
	return s.finish(s.g.Triples + triplesPerObservation*len(s.allAcked()))
}

// ErrIncorrect marks a run whose outputs did not all check out.
var ErrIncorrect = errors.New("benchmark outputs were not all correct")
