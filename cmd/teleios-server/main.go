// Command teleios-server serves a Strabon store over HTTP as an
// stSPARQL endpoint (SPARQL 1.1 Protocol): the web-accessible face of
// the Virtual Earth Observatory.
//
// Usage:
//
//	teleios-server [-addr :8080] [-data-dir DIR] [-nt FILE]
//	               [-linked] [-wal-sync always|none|DUR]
//	               [-ingest-max-chunk N] [-checkpoint-every DUR]
//	               [-checkpoint-bytes N] [-cache N]
//	               [-max-concurrency N] [-timeout DUR]
//	               [-max-query-parallelism N] [-readonly]
//	               [-replicate-from URL] [-route-to URL,URL,...]
//
// (docs/operations.md has the full flag table; a test keeps it in step
// with registerFlags.)
//
// -max-query-parallelism bounds the morsel parallelism of ONE query
// (0 = all cores, 1 = serial); the process-wide slot-budget pool still
// caps total extra goroutines across all concurrent queries and kernels
// at GOMAXPROCS-1. Prefix any
// read statement with EXPLAIN to see the physical plan the
// statistics-backed planner chose — estimated vs. measured
// cardinalities per operator and the morsel parallelism used.
//
// With -data-dir the store is durable: on boot the newest valid
// snapshot in the directory is loaded and the write-ahead log replayed
// past it, and afterwards every mutation — including INSERT/DELETE
// through the endpoint — is journalled before it is applied, so the
// database survives crashes and SIGKILL, not just graceful shutdown.
// -wal-sync picks the fsync policy (always = every durable ack, a
// duration = periodic, none = leave it to the OS); -checkpoint-every /
// -checkpoint-bytes bound how much WAL a restart replays. Writes commit
// through a group-commit pipeline: concurrent writers share one batched
// segment write and one fsync, so -wal-sync=always throughput scales
// with the writer count instead of paying one fsync per update: a batch
// gathers for exactly as long as the previous fsync takes. POST /ingest
// bulk-loads a streaming N-Triples body in pipelined chunks of
// -ingest-max-chunk triples. Checkpoints write
// the compressed, mmap-able packed snapshot format that recovery maps
// and serves in place — restart cost is verification, not
// materialisation.
//
// The dataset can be seeded from an N-Triples file (-nt) and the
// synthetic linked open data layers (-linked); with -data-dir the seeds
// are journalled like any other write (and re-seeding on a later boot is
// a no-op — duplicates are suppressed). Without -data-dir the store is
// in-memory only.
//
// Replication (see docs/replication.md): a node started with -data-dir
// automatically serves its WAL and snapshots under /replication/v1/.
// -replicate-from URL turns the node into a read-only replica of that
// primary: it bootstraps from the primary's newest snapshot, tails the
// WAL into its own -data-dir (so restarts resume locally), and rejects
// updates with 403. -route-to URL,URL,... runs a stateless
// consistent-hash router instead: the first URL is the primary (all
// updates go there), the rest are read replicas; reads hash by query
// text (or the Teleios-Tenant header) and a Teleios-Min-Version
// watermark steers read-your-writes traffic to caught-up backends.
//
// Example:
//
//	teleios-server -linked -data-dir ./teleios-data -addr :8080 &
//	curl 'http://localhost:8080/sparql?format=geojson' \
//	  --data-urlencode 'query=PREFIX noa: <http://teleios.di.uoa.gr/noa#>
//	    SELECT ?s ?geom WHERE { ?s noa:hasGeometry ?geom } LIMIT 5'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/linkeddata"
	"repro/internal/persist"
	"repro/internal/replication"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

type serverConfig struct {
	addr            string
	dataDir         string
	walSync         string
	checkpointEvery time.Duration
	checkpointBytes int64
	ntFile          string
	linked          bool
	cacheSize       int
	maxConc         int
	queueDepth      int
	timeout         time.Duration
	maxQueryPar     int
	readonly        bool
	replicateFrom   string
	routeTo         string
	rateLimit       float64
	rateBurst       int
	shedWatermark   float64
	breakerFails    int
	breakerOpen     time.Duration
	ingestMaxChunk  int
}

// registerFlags defines every teleios-server flag on fs. The "Flags"
// table in docs/operations.md is checked against it (flags_test.go).
func registerFlags(fs *flag.FlagSet, cfg *serverConfig) {
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable data directory (WAL + snapshots; recovered on boot)")
	fs.StringVar(&cfg.walSync, "wal-sync", "always", "WAL fsync policy: always, none, or an interval like 100ms")
	fs.DurationVar(&cfg.checkpointEvery, "checkpoint-every", 5*time.Minute, "background checkpoint interval (0 disables the timer)")
	fs.Int64Var(&cfg.checkpointBytes, "checkpoint-bytes", 64<<20, "background checkpoint WAL-size threshold in bytes (negative disables)")
	fs.StringVar(&cfg.ntFile, "nt", "", "load an N-Triples file")
	fs.BoolVar(&cfg.linked, "linked", false, "preload the synthetic linked open data")
	fs.IntVar(&cfg.cacheSize, "cache", 128, "LRU result cache capacity in entries (negative disables)")
	fs.IntVar(&cfg.maxConc, "max-concurrency", 8, "maximum concurrently evaluating queries")
	fs.IntVar(&cfg.queueDepth, "queue", 0, "query queue depth (0 means 4*max-concurrency, negative for no queue)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-query evaluation deadline")
	fs.IntVar(&cfg.maxQueryPar, "max-query-parallelism", 0, "morsel-parallel workers per query (0 = all cores, 1 = serial)")
	fs.BoolVar(&cfg.readonly, "readonly", false, "reject UPDATE statements")
	fs.StringVar(&cfg.replicateFrom, "replicate-from", "", "run as a read-only replica tailing this primary's WAL (e.g. http://db0:8080; requires -data-dir)")
	fs.StringVar(&cfg.routeTo, "route-to", "", "run as a stateless query router over this comma-separated backend list (first = primary, rest = replicas)")
	fs.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-client request rate cap in req/s, keyed on the Teleios-Tenant header or remote IP (0 disables; excess gets 429)")
	fs.IntVar(&cfg.rateBurst, "rate-burst", 0, "per-client burst allowance above -rate-limit (0 means 2*rate-limit)")
	fs.Float64Var(&cfg.shedWatermark, "shed-watermark", 0, "fraction of -queue at which new queries are shed with 503 before the pool saturates (0 or out of range sheds only when full)")
	fs.IntVar(&cfg.breakerFails, "breaker-fails", 0, "router: consecutive failed health checks before a backend's circuit breaker ejects it (0 = default 2)")
	fs.DurationVar(&cfg.breakerOpen, "breaker-open", 0, "router: minimum hold-out after a breaker trips, damping flapping backends (0 readmits on the first healthy check)")
	fs.IntVar(&cfg.ingestMaxChunk, "ingest-max-chunk", 0, "triples per /ingest commit batch (0 = default 8192)")
}

func main() {
	var cfg serverConfig
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "teleios-server:", err)
		os.Exit(1)
	}
}

// parseWALSync maps the -wal-sync flag onto a persist sync policy.
func parseWALSync(s string) (persist.SyncMode, time.Duration, error) {
	switch s {
	case "always", "":
		return persist.SyncAlways, 0, nil
	case "none":
		return persist.SyncNone, 0, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("-wal-sync must be always, none, or a positive duration (got %q)", s)
		}
		return persist.SyncInterval, d, nil
	}
}

func run(cfg serverConfig) error {
	if cfg.routeTo != "" {
		if cfg.replicateFrom != "" || cfg.dataDir != "" || cfg.ntFile != "" || cfg.linked {
			return errors.New("-route-to is a stateless mode: it cannot be combined with -replicate-from, -data-dir, -nt or -linked")
		}
		return runRouter(cfg)
	}
	if cfg.replicateFrom != "" {
		if cfg.dataDir == "" {
			return errors.New("-replicate-from requires -data-dir (the replica's own durable directory)")
		}
		if cfg.ntFile != "" || cfg.linked {
			return errors.New("-replicate-from cannot be combined with seed flags (-nt, -linked): replicas get all data from the primary")
		}
		return runReplica(cfg)
	}

	// Durable path: recover the store from the data directory and keep
	// journalling through it. The in-memory path (no -data-dir) starts
	// empty.
	var (
		st      *strabon.Store
		manager *persist.Manager
	)
	if cfg.dataDir != "" {
		mode, every, err := parseWALSync(cfg.walSync)
		if err != nil {
			return err
		}
		recoverStart := time.Now()
		m, recovered, err := persist.Open(persist.Options{
			Dir:             cfg.dataDir,
			SyncMode:        mode,
			SyncEvery:       every,
			CheckpointEvery: cfg.checkpointEvery,
			CheckpointBytes: cfg.checkpointBytes,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "teleios-server: "+format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("recovering data dir %s: %w", cfg.dataDir, err)
		}
		manager, st = m, recovered
		defer manager.Close()
		ps := manager.Stats()
		fmt.Printf("teleios-server: recovered %d triples from %s in %s (%d WAL records replayed, wal-sync=%s)\n",
			st.Len(), cfg.dataDir, time.Since(recoverStart).Round(time.Millisecond), ps.ReplayedRecords, mode)
	} else {
		st = strabon.NewStore()
	}

	// Seed sources. Under -data-dir these are journalled writes like any
	// other, so they are durable and idempotent across restarts.
	if cfg.ntFile != "" {
		f, err := os.Open(cfg.ntFile)
		if err != nil {
			return err
		}
		n, err := st.LoadNTriples(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", cfg.ntFile, err)
		}
		fmt.Printf("teleios-server: loaded %d triples from %s\n", n, cfg.ntFile)
	}
	if cfg.linked {
		st.AddAll(linkeddata.All())
	}
	if err := st.JournalErr(); err != nil {
		return fmt.Errorf("journalling seed data: %w", err)
	}

	eng := stsparql.New(st)
	eng.MaxParallelism = cfg.maxQueryPar
	epCfg := endpoint.Config{
		Engine:         eng,
		Store:          st,
		MaxConcurrency: cfg.maxConc,
		QueueDepth:     cfg.queueDepth,
		QueryTimeout:   cfg.timeout,
		CacheSize:      cfg.cacheSize,
		ReadOnly:       cfg.readonly,
		RateLimit:      cfg.rateLimit,
		RateBurst:      cfg.rateBurst,
		ShedWatermark:  cfg.shedWatermark,
		IngestMaxChunk: cfg.ingestMaxChunk,
	}
	if manager != nil {
		epCfg.DurabilityStats = func() endpoint.DurabilityStats {
			return durabilityStats(manager)
		}
		// A WAL that latched an unrecoverable append failure puts the
		// node in degraded read-only mode: reads keep serving, updates
		// get a clear 503 until a restart re-truncates the log.
		epCfg.DegradedCheck = manager.Broken
	}
	// With a data dir the node can feed replicas: mount the WAL-shipping
	// handlers on the same mux and surface shipping counters in /stats.
	var mounts []func(*http.ServeMux)
	if manager != nil {
		prim := replication.NewPrimary(manager)
		mounts = append(mounts, prim.Register)
		epCfg.ReplicationStats = func() any {
			return struct {
				Role string `json:"role"`
				replication.PrimaryStats
			}{"primary", prim.Stats()}
		}
	}
	srv, err := endpoint.NewServer(epCfg)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(mounts...),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		stats := st.Stats()
		fmt.Printf("teleios-server: listening on %s (%d triples, %d spatial literals)\n",
			cfg.addr, stats.Triples, stats.SpatialLiterals)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Println("teleios-server: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	// Drain the worker pool before snapshotting: an abandoned
	// (timed-out) update may still be mutating the store after its HTTP
	// connection is gone, and the final checkpoint must not race it.
	// This also means a Shutdown timeout cannot skip persistence —
	// updates already applied would be lost.
	srv.Close()
	if manager != nil {
		if err := manager.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Printf("teleios-server: checkpointed to %s\n", cfg.dataDir)
	}
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	return nil
}

// runReplica boots the node as a read-only replica: bootstrap from the
// primary's newest snapshot (first boot only), tail its WAL into a
// local durable directory, and serve queries from the replicated store.
// Updates get 403s pointing clients at the primary. The replica mounts
// the WAL-shipping handlers itself, so replicas can chain off replicas.
func runReplica(cfg serverConfig) error {
	mode, every, err := parseWALSync(cfg.walSync)
	if err != nil {
		return err
	}
	if every != 0 {
		return errors.New("-wal-sync intervals are not supported in replica mode; use always or none")
	}
	bootStart := time.Now()
	rep, err := replication.OpenReplica(replication.ReplicaOptions{
		Primary:         cfg.replicateFrom,
		Dir:             cfg.dataDir,
		SyncMode:        mode,
		HasSyncMode:     true,
		CheckpointEvery: cfg.checkpointEvery,
		CheckpointBytes: cfg.checkpointBytes,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "teleios-server: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer rep.Close()
	st := rep.Store()
	fmt.Printf("teleios-server: replica of %s ready in %s (%d triples, applied seq %d)\n",
		cfg.replicateFrom, time.Since(bootStart).Round(time.Millisecond), st.Len(), rep.AppliedSeq())

	eng := stsparql.New(st)
	eng.MaxParallelism = cfg.maxQueryPar
	prim := replication.NewPrimary(rep.Manager())
	epCfg := endpoint.Config{
		Engine:          eng,
		Store:           st,
		MaxConcurrency:  cfg.maxConc,
		QueueDepth:      cfg.queueDepth,
		QueryTimeout:    cfg.timeout,
		CacheSize:       cfg.cacheSize,
		ReadOnly:        true,
		ReadOnlyMessage: fmt.Sprintf("this node is a read-only replica; send updates to the primary at %s", cfg.replicateFrom),
		RateLimit:       cfg.rateLimit,
		RateBurst:       cfg.rateBurst,
		ShedWatermark:   cfg.shedWatermark,
		DurabilityStats: func() endpoint.DurabilityStats {
			return durabilityStats(rep.Manager())
		},
		ReplicationStats: func() any {
			return struct {
				Role string `json:"role"`
				replication.ReplicaStats
			}{"replica", rep.Stats()}
		},
	}
	srv, err := endpoint.NewServer(epCfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(prim.Register),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntilSignal(httpSrv, srv.Close, func() error {
		fmt.Println("teleios-server: replica shutting down")
		return rep.Close()
	})
}

// runRouter boots the node as a stateless consistent-hash query router
// over an existing primary + replica fleet. It holds no store: /sparql
// is proxied, /stats and /health describe the fleet.
func runRouter(cfg serverConfig) error {
	hosts := strings.Split(cfg.routeTo, ",")
	for i := range hosts {
		hosts[i] = strings.TrimSpace(hosts[i])
	}
	if len(hosts) == 0 || hosts[0] == "" {
		return errors.New("-route-to needs at least a primary URL")
	}
	rt, err := replication.NewRouter(replication.RouterOptions{
		Primary:        hosts[0],
		Replicas:       hosts[1:],
		FailAfter:      cfg.breakerFails,
		BreakerOpenFor: cfg.breakerOpen,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "teleios-server: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	mux := http.NewServeMux()
	rt.Register(mux)
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("teleios-server: routing %s -> primary %s + %d replica(s)\n", cfg.addr, hosts[0], len(hosts)-1)
	return serveUntilSignal(httpSrv, func() {}, func() error {
		fmt.Println("teleios-server: router shutting down")
		rt.Close()
		return nil
	})
}

// serveUntilSignal runs an HTTP server until SIGINT/SIGTERM, then
// drains it: Shutdown, stop accepting work (drain), then finish
// (persist/close state).
func serveUntilSignal(httpSrv *http.Server, drain func(), finish func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("teleios-server: listening on %s\n", httpSrv.Addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	select {
	case err := <-errCh:
		drain()
		finish()
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutErr := httpSrv.Shutdown(shutCtx)
	drain()
	if err := finish(); err != nil {
		return err
	}
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	return nil
}

// durabilityStats maps persist.Manager stats onto the endpoint's
// telemetry block.
func durabilityStats(m *persist.Manager) endpoint.DurabilityStats {
	ps := m.Stats()
	ds := endpoint.DurabilityStats{
		WALBytes:          ps.WALBytes,
		WALSegments:       ps.WALSegments,
		WALSeq:            ps.LastSeq,
		Snapshots:         ps.Snapshots,
		LastCheckpointSeq: ps.LastCheckpointSeq,
		LastCheckpointMs:  ps.LastCheckpointTook.Milliseconds(),
		RecoveryMs:        ps.RecoveryTook.Milliseconds(),
		ReplayedRecords:   ps.ReplayedRecords,
		SnapshotBytes:     ps.SnapshotBytes,
		StoreMode:         ps.StoreMode,
		ResidentBytes:     ps.ResidentBytes,
	}
	if !ps.LastCheckpointAt.IsZero() {
		ds.LastCheckpointUnixMs = ps.LastCheckpointAt.UnixMilli()
	}
	if ps.JournalErr != nil {
		ds.JournalError = ps.JournalErr.Error()
	}
	ds.GroupBatches = ps.GroupBatches
	ds.GroupRecords = ps.GroupRecords
	ds.GroupFsyncs = ps.GroupFsyncs
	ds.FsyncsSaved = ps.FsyncsSaved
	ds.TicketWaitUs = ps.TicketWaitMean.Microseconds()
	if ps.GroupBatches > 0 {
		ds.GroupBatchHist = ps.GroupBatchHist[:]
	}
	return ds
}
