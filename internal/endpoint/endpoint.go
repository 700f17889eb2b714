// Package endpoint exposes a Strabon store over HTTP as an stSPARQL
// query endpoint, following the SPARQL 1.1 Protocol: queries arrive via
// GET /sparql?query=... or POST /sparql (form-encoded or raw
// application/sparql-query body) and results are serialised according to
// content negotiation — SPARQL Results JSON, CSV, TSV, GeoJSON feature
// collections for rows carrying stRDF geometries, and N-Triples for
// CONSTRUCT graphs.
//
// The server is built for concurrent load in front of a single store: a
// bounded worker pool caps how many evaluations contend on the store's
// lock at once (excess requests get fast 503s instead of queueing
// without bound), every query runs under a deadline, and an LRU cache
// keyed on (query text, store version) serves repeated read queries
// without re-evaluation. UPDATE statements (INSERT/DELETE) are accepted
// over POST only and can be disabled wholesale with Config.ReadOnly.
//
// Beyond /sparql the handler serves /health (liveness plus triple count)
// and /stats (store, cache, and pool counters) for operations.
package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/replication"
	"repro/internal/strabon"
	"repro/internal/strdf"
	"repro/internal/stsparql"
)

// QueryEngine evaluates one parsed stSPARQL statement under the
// request's context (carrying the per-query deadline, so a timed-out or
// disconnected request stops the evaluation instead of orphaning it).
// *stsparql.Engine implements it; tests substitute slow or failing
// engines. The handler parses before dispatching (for 400s, update
// gating, and serialisation), so the engine receives the already-parsed
// query and never re-parses.
type QueryEngine interface {
	EvalContext(ctx context.Context, q *stsparql.Query) (*stsparql.Result, error)
}

// errEvalPanic wraps a panic recovered from the evaluator so the
// handler can map it to a 500.
var errEvalPanic = errors.New("endpoint: evaluation panicked")

// Config parameterises a Server. The zero value of each field selects a
// sensible default (see the field comments).
//
// Statement atomicity lives in the store: every update is one
// Store.Apply or Store.Update, and every read evaluates against one
// immutable Snapshot, so other writers of the same Store (a second
// Server, in-process callers, a replica's tail loop) never tear a
// statement. The result cache keys on the store version, which every
// write moves.
type Config struct {
	// Engine evaluates queries. Required.
	Engine QueryEngine
	// Store, when set, supplies the version counter that keys the result
	// cache and the statistics for /health and /stats. Without it the
	// cache is disabled (results could go stale invisibly).
	Store *strabon.Store
	// MaxConcurrency bounds simultaneously evaluating queries
	// (default 8).
	MaxConcurrency int
	// QueueDepth bounds queries waiting for a worker (default
	// 4*MaxConcurrency; negative selects an unbuffered handoff, where a
	// request is rejected unless a worker is immediately free). A full
	// queue produces 503s.
	QueueDepth int
	// QueryTimeout bounds one evaluation, queue wait included
	// (default 30s). Expiry produces a 503 with Retry-After.
	QueryTimeout time.Duration
	// CacheSize is the LRU result-cache capacity in entries
	// (default 128; 0 keeps the default, negative disables).
	CacheSize int
	// MaxCacheableRows bounds the size of an individual cached result
	// (bindings or triples); larger results are served but not cached,
	// so a few huge SELECTs cannot pin unbounded memory (default 10000).
	MaxCacheableRows int
	// ReadOnly rejects UPDATE statements with 403.
	ReadOnly bool
	// ReadOnlyMessage customises the 403 body (default "endpoint is
	// read-only"). Replica mode sets it to point clients at the primary.
	ReadOnlyMessage string
	// MaxQueryBytes bounds the request query text (default 1 MiB).
	MaxQueryBytes int64
	// RateLimit caps each client's request rate in requests/second,
	// keyed on the Teleios-Tenant header (or remote IP). 0 disables
	// rate limiting. Excess requests get 429 with a Retry-After hint.
	RateLimit float64
	// RateBurst is the per-client burst allowance (default 2*RateLimit,
	// minimum 1).
	RateBurst int
	// MaxClients bounds how many per-client rate-limit buckets are kept
	// (LRU-evicted beyond it, default 4096), so a spoofed tenant space
	// cannot grow memory without bound.
	MaxClients int
	// ShedWatermark is the fraction of QueueDepth at which admission
	// control starts shedding queries before the pool saturates (0 or
	// out of range selects 1.0: shed only when the queue is full).
	ShedWatermark float64
	// DegradedCheck, when set, is consulted before every update: a
	// non-nil error puts the endpoint in degraded read-only mode —
	// reads keep serving, updates get a clear 503 naming the cause.
	// teleios-server wires it to persist.Manager.Broken (the latched
	// can't-write-until-restart state).
	DegradedCheck func() error
	// DurabilityStats, when set, supplies write-ahead-log and checkpoint
	// telemetry for /stats (wired to persist.Manager.Stats by
	// teleios-server; nil when the server runs without a data dir).
	DurabilityStats func() DurabilityStats
	// ReplicationStats, when set, supplies a role-specific replication
	// telemetry block for /stats (a replication.PrimaryStats or
	// replication.ReplicaStats, wired by teleios-server; nil when the
	// node neither ships nor tails a WAL).
	ReplicationStats func() any
	// IngestMaxChunk bounds how many triples one /ingest chunk (one
	// Store.Apply, one journal record) carries (default 8192). Smaller chunks
	// lower per-chunk latency and memory; larger ones amortise more
	// lock/journal overhead per commit.
	IngestMaxChunk int
}

// DurabilityStats is the persistence telemetry block exposed at /stats.
type DurabilityStats struct {
	Enabled              bool   `json:"enabled"`
	WALBytes             int64  `json:"wal_bytes"`
	WALSegments          int    `json:"wal_segments"`
	WALSeq               uint64 `json:"wal_seq"`
	Snapshots            int    `json:"snapshots"`
	LastCheckpointSeq    uint64 `json:"last_checkpoint_seq"`
	LastCheckpointUnixMs int64  `json:"last_checkpoint_unix_ms,omitempty"`
	LastCheckpointMs     int64  `json:"last_checkpoint_ms,omitempty"`
	RecoveryMs           int64  `json:"recovery_ms"`
	ReplayedRecords      uint64 `json:"replayed_records"`
	JournalError         string `json:"journal_error,omitempty"`

	// Snapshot telemetry: how big the newest snapshot is on disk, whether
	// the store's base is the mmap-ed packed snapshot it booted from
	// ("mapped", writes or not) or an image a fold built in memory
	// ("image"), and the estimated resident heap bytes of its primary
	// state (the base's decoded-block caches, its term index and the
	// delta).
	SnapshotBytes int64  `json:"snapshot_bytes,omitempty"`
	StoreMode     string `json:"store_mode,omitempty"`
	ResidentBytes int64  `json:"resident_bytes,omitempty"`

	// Group-commit telemetry (PR 10): flushed batches, journalled
	// records, physical fsyncs, the fsyncs the batching avoided versus
	// one-fsync-per-record (-wal-sync always only), the mean time a
	// record's commit ticket waited for its batch to become durable,
	// and the records-per-batch histogram (bucket i counts batches of
	// 2^i..2^(i+1)-1 records; the last is open-ended).
	GroupBatches   uint64   `json:"group_batches,omitempty"`
	GroupRecords   uint64   `json:"group_records,omitempty"`
	GroupFsyncs    uint64   `json:"group_fsyncs,omitempty"`
	FsyncsSaved    uint64   `json:"fsyncs_saved,omitempty"`
	TicketWaitUs   int64    `json:"ticket_wait_mean_us,omitempty"`
	GroupBatchHist []uint64 `json:"group_batch_hist,omitempty"`
}

// Server is the stSPARQL protocol endpoint.
type Server struct {
	cfg   Config
	pool  *Pool
	cache *ResultCache
	adm   *admission
}

// NewServer validates cfg, applies defaults, and returns a Server whose
// worker pool is running. Callers must Close it when done.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("endpoint: Config.Engine is required")
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 8
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.MaxConcurrency
	}
	// Negative passes through; NewPool clamps it to a depth-0 handoff.
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 30 * time.Second
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.Store == nil {
		// No version source: caching would serve stale results forever.
		cfg.CacheSize = -1
	}
	if cfg.MaxQueryBytes <= 0 {
		cfg.MaxQueryBytes = 1 << 20
	}
	if cfg.MaxCacheableRows <= 0 {
		cfg.MaxCacheableRows = 10000
	}
	return &Server{
		cfg:   cfg,
		pool:  NewPool(cfg.MaxConcurrency, cfg.QueueDepth),
		cache: NewResultCache(cfg.CacheSize),
		adm:   newAdmission(cfg),
	}, nil
}

// degradedErr reports why the server is in degraded read-only mode,
// nil when it is not. A transient journal veto fails only its own
// update (500); this hook reports the *latched* failures — a broken
// WAL, an unwritable data dir — where every write is doomed until
// restart, so refusing them up front with a clear 503 beats limping.
func (s *Server) degradedErr() error {
	if s.cfg.DegradedCheck == nil {
		return nil
	}
	return s.cfg.DegradedCheck()
}

// setRetryAfter stamps the computed overload hint on a 503.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter(s.pool.Stats())))
}

// Close drains the worker pool. In-flight queries finish; new requests
// fail with 503.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the endpoint's HTTP handler: /sparql, /health,
// /stats. Each extra callback may mount additional routes on the same
// mux (teleios-server uses this for the /replication/v1/ handlers, so
// WAL shipping needs no second listener or process).
func (s *Server) Handler(extra ...func(*http.ServeMux)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.handleSparql)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/", s.handleIndex)
	for _, fn := range extra {
		fn(mux)
	}
	return mux
}

// extractQuery pulls the statement text out of a protocol request:
// ?query= on GET; form fields query=/update= or a raw
// application/sparql-query / application/sparql-update body on POST.
func (s *Server) extractQuery(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("query")
		if q == "" {
			return "", errors.New("missing required 'query' parameter")
		}
		if int64(len(q)) > s.cfg.MaxQueryBytes {
			return "", fmt.Errorf("query exceeds the %d-byte limit", s.cfg.MaxQueryBytes)
		}
		return q, nil
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if i := strings.IndexByte(ct, ';'); i >= 0 {
			ct = ct[:i]
		}
		ct = strings.TrimSpace(strings.ToLower(ct))
		r.Body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxQueryBytes)
		switch ct {
		case "application/sparql-query", "application/sparql-update":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return "", fmt.Errorf("reading body: %w", err)
			}
			if len(body) == 0 {
				return "", errors.New("empty request body")
			}
			return string(body), nil
		default:
			// Form-encoded (the default for curl --data-urlencode).
			if err := r.ParseForm(); err != nil {
				return "", fmt.Errorf("parsing form: %w", err)
			}
			if q := r.PostForm.Get("query"); q != "" {
				return q, nil
			}
			if q := r.PostForm.Get("update"); q != "" {
				return q, nil
			}
			return "", errors.New("missing 'query' or 'update' form field")
		}
	default:
		return "", errors.New("method not allowed")
	}
}

func isUpdateForm(form stsparql.QueryForm) bool {
	switch form {
	case stsparql.FormInsertData, stsparql.FormDeleteData, stsparql.FormModify:
		return true
	}
	return false
}

func (s *Server) handleSparql(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}
	if ok, retry := s.adm.admitClient(r); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "rate limit exceeded for this client; slow down", http.StatusTooManyRequests)
		return
	}
	src, err := s.extractQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Parse up front: malformed queries 400 without occupying a worker,
	// and the form drives update gating plus result serialisation.
	parsed, err := stsparql.ParseQuery(src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	update := isUpdateForm(parsed.Form)
	// An EXPLAIN result is a binding table (?plan rows) no matter which
	// read form was explained, so negotiation and serialisation treat it
	// as SELECT — otherwise EXPLAIN ASK would render a bare boolean and
	// EXPLAIN CONSTRUCT an empty graph.
	serForm := parsed.Form
	if parsed.Explain {
		serForm = stsparql.FormSelect
	}
	var format Format
	if update {
		if s.cfg.ReadOnly {
			msg := s.cfg.ReadOnlyMessage
			if msg == "" {
				msg = "endpoint is read-only"
			}
			http.Error(w, msg, http.StatusForbidden)
			return
		}
		if r.Method == http.MethodGet {
			// The protocol forbids updates via GET (they mutate state).
			w.Header().Set("Allow", "POST")
			http.Error(w, "updates require POST", http.StatusMethodNotAllowed)
			return
		}
		if jerr := s.degradedErr(); jerr != nil {
			// The write-ahead journal has latched a failure (disk full,
			// I/O error, unwritable data dir): the store can no longer
			// make writes durable. Degrade honestly — keep serving
			// reads, refuse writes with a clear 503 — instead of
			// accepting updates that would be lost on restart.
			s.adm.degradedDenials.Add(1)
			w.Header().Set("Retry-After", "60")
			http.Error(w, fmt.Sprintf(
				"endpoint is in degraded read-only mode: the write-ahead journal failed (%v); "+
					"reads continue to be served, writes are refused until the data directory recovers and the server restarts", jerr),
				http.StatusServiceUnavailable)
			return
		}
		// Update responses are always JSON; Accept does not apply.
	} else {
		var negErr *negotiationError
		format, negErr = negotiateFormat(r.URL.Query().Get("format"), r.Header.Get("Accept"), serForm)
		if negErr != nil {
			http.Error(w, negErr.message, negErr.status)
			return
		}
	}

	cv := s.storeVersion()
	if !update {
		// Read-your-writes backstop: a client holding an applied-seq
		// watermark (from an earlier update's Teleios-Applied-Seq) may
		// demand this read reflect it. The router normally steers such
		// reads to a caught-up backend; this check catches direct hits
		// on a lagging replica — better a retryable 503 than a silent
		// stale read.
		if mv := r.Header.Get(replication.HeaderMinVersion); mv != "" && s.cfg.Store != nil {
			min, perr := strconv.ParseUint(mv, 10, 64)
			if perr != nil {
				http.Error(w, "bad "+replication.HeaderMinVersion+" header", http.StatusBadRequest)
				return
			}
			if cv.AppliedSeq < min {
				w.Header().Set("Retry-After", "1")
				w.Header().Set(replication.HeaderAppliedSeq, strconv.FormatUint(cv.AppliedSeq, 10))
				http.Error(w, fmt.Sprintf("store is at applied seq %d, below the requested %d", cv.AppliedSeq, min),
					http.StatusServiceUnavailable)
				return
			}
		}
		// The store fingerprint makes a strong validator: identical
		// (query, version, applied-seq, format) means byte-identical
		// output, so a matching If-None-Match skips evaluation entirely.
		if s.cfg.Store != nil {
			etag := readETag(src, cv, format)
			w.Header().Set("ETag", etag)
			if inmMatches(r.Header.Get("If-None-Match"), etag) {
				w.Header().Set(replication.HeaderAppliedSeq, strconv.FormatUint(cv.AppliedSeq, 10))
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}

	res, err := s.evaluate(r.Context(), src, parsed, update)
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed):
		s.setRetryAfter(w)
		http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		return
	case errors.Is(err, errEvalPanic):
		http.Error(w, "internal error evaluating the query", http.StatusInternalServerError)
		return
	case errors.Is(err, strabon.ErrVetoed):
		// The WAL refused the update's record, or it did not become
		// durable: the statement must not be acknowledged.
		http.Error(w, "update could not be journalled to the write-ahead log and was not applied; see /stats",
			http.StatusInternalServerError)
		return
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		if update {
			// The evaluator is not preemptible: a timed-out update may
			// still be applied by the worker after this response. Don't
			// invite a blind retry of a non-idempotent statement with
			// Retry-After — report the ambiguity instead.
			http.Error(w, "update timed out; it may or may not have been applied — verify before retrying",
				http.StatusInternalServerError)
			return
		}
		s.setRetryAfter(w)
		http.Error(w, "query timed out", http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if update {
		// The watermark re-read AFTER the update is the client's
		// read-your-writes token: echo it back in a later read's
		// Teleios-Min-Version and any backend serving that read is
		// guaranteed to reflect this write.
		if s.cfg.Store != nil {
			w.Header().Set(replication.HeaderAppliedSeq, strconv.FormatUint(s.cfg.Store.AppliedSeq(), 10))
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"affected\":%d}\n", res.Affected)
		return
	}
	if s.cfg.Store != nil {
		w.Header().Set(replication.HeaderAppliedSeq, strconv.FormatUint(cv.AppliedSeq, 10))
	}
	w.Header().Set("Content-Type", format.ContentType())
	if err := writeResult(w, res, serForm, format, s.resolveGeom); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// resolveGeom decodes a spatial literal through the store's geometry
// cache, read from its current Snapshot, when possible (already parsed
// and WGS84-normalised), parsing directly only for literals the store
// has never seen (e.g. values computed by strdf:buffer in a
// projection). The cache entry is only trusted when it really is WGS84:
// ingest keeps the original coordinates when a literal's CRS cannot be
// reprojected, and GeoJSON must render such rows with a null geometry,
// not mislabeled planar coordinates.
func (s *Server) resolveGeom(t rdf.Term) (strdf.SpatialValue, error) {
	if s.cfg.Store != nil {
		sn := s.cfg.Store.Snapshot()
		if id, ok := sn.Lookup(t); ok {
			if sv, ok := sn.Geometry(id); ok &&
				(sv.SRID == geo.SRIDWGS84 || sv.SRID == geo.SRIDCRS84) {
				return sv, nil
			}
		}
	}
	return parseGeomDirect(t)
}

// evaluate runs one statement through the cache and worker pool under
// the configured deadline. src is the raw query text (the cache key);
// parsed is its parse, handed to the engine so it is not re-parsed.
func (s *Server) evaluate(ctx context.Context, src string, parsed *stsparql.Query, update bool) (*stsparql.Result, error) {
	version := s.storeVersion()
	if !update {
		if res, ok := s.cache.Get(src, version); ok {
			return res, nil
		}
	}
	// Shed before submitting: past the watermark the queue is long
	// enough that this request would mostly wait, so a fast 503 with an
	// honest Retry-After serves the client better than a slow timeout.
	if s.adm.shouldShed(s.pool.Stats()) {
		s.adm.shed.Add(1)
		return nil, ErrOverloaded
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	var (
		res     *stsparql.Result
		evalErr error
	)
	if err := s.pool.Submit(ctx, func() {
		// A panic in the evaluator must fail this one request with a
		// 500, not take down the process (pool workers are outside
		// net/http's per-handler recovery).
		defer func() {
			if r := recover(); r != nil {
				evalErr = fmt.Errorf("%w: %v", errEvalPanic, r)
			}
		}()
		res, evalErr = s.cfg.Engine.EvalContext(ctx, parsed)
	}); err != nil {
		return nil, err
	}
	s.adm.observe(time.Since(start))
	if evalErr != nil {
		return nil, evalErr
	}
	if !update && s.cfg.Store != nil &&
		len(res.Bindings)+len(res.Triples) <= s.cfg.MaxCacheableRows {
		// Re-read the fingerprint: if a concurrent update landed during
		// evaluation, caching under the old version would pin a result
		// that mixes both states. Skip caching in that case.
		if now := s.storeVersion(); now == version {
			s.cache.Put(src, version, res)
		}
	}
	return res, nil
}

// storeVersion snapshots the store-state fingerprint that keys the
// result cache and the ETag. On a replica the AppliedSeq half also
// moves under replicated writes, keeping cached results from outliving
// shipped mutations.
func (s *Server) storeVersion() CacheVersion {
	if s.cfg.Store == nil {
		return CacheVersion{}
	}
	return CacheVersion{
		Version:    s.cfg.Store.Version(),
		AppliedSeq: s.cfg.Store.AppliedSeq(),
	}
}

// readETag derives the strong validator for a read: two requests agree
// iff query text, store fingerprint and serialisation format all agree.
func readETag(src string, cv CacheVersion, format Format) string {
	h := fnv.New64a()
	io.WriteString(h, src)
	fmt.Fprintf(h, "|%d|%d|%d", cv.Version, cv.AppliedSeq, format)
	return fmt.Sprintf("\"t%016x\"", h.Sum64())
}

// inmMatches reports whether an If-None-Match header value matches the
// given ETag (exact entity-tag or the * wildcard).
func inmMatches(inm, etag string) bool {
	if inm == "" {
		return false
	}
	for _, part := range strings.Split(inm, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	triples := -1
	if s.cfg.Store != nil {
		triples = s.cfg.Store.Len()
	}
	fmt.Fprintf(w, "{\"status\":\"ok\",\"triples\":%d}\n", triples)
}

// storeStats mirrors strabon.Stats with the JSON field names the
// endpoint exposes. AppliedSeq is load-bearing beyond telemetry: the
// replication router's health loop reads store.applied_seq to track
// each backend's lag and steer watermarked reads.
type storeStats struct {
	Triples         int    `json:"triples"`
	Terms           int    `json:"terms"`
	SpatialLiterals int    `json:"spatial_literals"`
	Predicates      int    `json:"predicates"`
	Version         uint64 `json:"version"`
	AppliedSeq      uint64 `json:"applied_seq"`
	// Read-view builds (strabon.ViewCounters): full builds, delta builds
	// over the installed base, readers that waited for another reader's
	// build, and the size of the newest view's delta.
	SnapshotFullBuilds  uint64 `json:"snapshot_full_builds"`
	SnapshotDeltaBuilds uint64 `json:"snapshot_delta_builds"`
	SnapshotBuildWaits  uint64 `json:"snapshot_build_waits"`
	SnapshotDeltaRows   int64  `json:"snapshot_delta_rows"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var st strabon.Stats
	ss := storeStats{}
	if s.cfg.Store != nil {
		st = s.cfg.Store.Stats()
		ss.Version = s.cfg.Store.Version()
		ss.AppliedSeq = s.cfg.Store.AppliedSeq()
		vc := s.cfg.Store.ViewCounters()
		ss.SnapshotFullBuilds, ss.SnapshotDeltaBuilds = vc.FullBuilds, vc.DeltaBuilds
		ss.SnapshotBuildWaits, ss.SnapshotDeltaRows = vc.BuildWaits, vc.DeltaRows
	}
	ss.Triples = st.Triples
	ss.Terms = st.Terms
	ss.SpatialLiterals = st.SpatialLiterals
	ss.Predicates = st.Predicates
	var durability DurabilityStats
	if s.cfg.DurabilityStats != nil {
		durability = s.cfg.DurabilityStats()
		durability.Enabled = true
	}
	var repl any
	if s.cfg.ReplicationStats != nil {
		repl = s.cfg.ReplicationStats()
	}
	ps := s.pool.Stats()
	json.NewEncoder(w).Encode(struct {
		Store       storeStats      `json:"store"`
		Cache       CacheStats      `json:"cache"`
		Pool        PoolStats       `json:"pool"`
		Admission   AdmissionStats  `json:"admission"`
		Persistence DurabilityStats `json:"persistence"`
		Replication any             `json:"replication,omitempty"`
	}{
		Store:       ss,
		Cache:       s.cache.Stats(),
		Pool:        ps,
		Admission:   s.adm.stats(ps, s.degradedErr()),
		Persistence: durability,
		Replication: repl,
	})
}

// handleIndex serves a minimal service description so that hitting the
// root with a browser or curl is self-explanatory.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `TELEIOS stSPARQL endpoint

  GET  /sparql?query=...   evaluate a query (Accept: application/sparql-results+json,
                           text/csv, text/tab-separated-values, application/geo+json;
                           or ?format=json|csv|tsv|geojson)
  POST /sparql             query= or update= form field, or a raw
                           application/sparql-query body
  POST /ingest             streaming N-Triples bulk load (chunked bodies
                           welcome); commits in pipelined batches
  GET  /health             liveness and triple count
  GET  /stats              store / cache / worker-pool counters
`)
}
