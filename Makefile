# TELEIOS reproduction — build, test and benchmark entry points.

GO ?= go

# The tier-1 benchmark set: the paper's three figures, two scenarios, the
# flagship query and the design ablations (see bench_test.go), plus the
# SciQL executor and parallel array-kernel benchmarks (internal/sciql,
# internal/array) added in PR 3, the durability benchmarks
# (internal/persist: WAL append, snapshot write/load, WAL-replay
# recovery) added in PR 4, and the
# morsel-parallel multi-pattern SPARQL cores ablation
# (BenchmarkParallelQueryAblation: 1/2/4/GOMAXPROCS workers) added in
# PR 5, and the replication benchmarks (internal/replication: WAL
# tail-apply throughput and cold-replica bootstrap time) added in PR 6.
# PR 7 widens the persist set: snapshot write/load/scan-cold report
# disk-bytes / resident-bytes metrics. PR 10 adds the group-commit
# writer-count benchmark (acked-updates/sec and fsyncs/op at 1/2/4/8
# writers, per sync mode) and the streaming /ingest endpoint benchmark.
# PR 12 retired the legacy-executor, raw-snapshot, nogroup-pipeline and
# N-Triples-load sides; surviving rows keep their names.
BENCH_TIER1 = BenchmarkFigure1Pipeline|BenchmarkFigure3CatalogueSearch|BenchmarkFlagshipQuery|BenchmarkOptimizerOrdering|BenchmarkAblationExecutor|BenchmarkAblationSpatialIndex|BenchmarkParallelQueryAblation
BENCH_SCIQL = BenchmarkSelectFilter|BenchmarkGroupByAggregate|BenchmarkArrayUpdateClassify|BenchmarkAlignedArrayJoin|BenchmarkDimensionPushdownCrop|BenchmarkAblationSciQLExecutor
BENCH_ARRAY = BenchmarkConvolve2D|BenchmarkResampleBilinear|BenchmarkTileAvg|BenchmarkConnectedComponents|BenchmarkSummarize|BenchmarkAblationParallelKernels
BENCH_PERSIST = BenchmarkWALAppend|BenchmarkWALAppendBatch|BenchmarkWALAppendSynced|BenchmarkSnapshotWrite|BenchmarkSnapshotLoad|BenchmarkSnapshotScanCold|BenchmarkRecoveryReplay
BENCH_GROUP = BenchmarkGroupCommitWriters
BENCH_INGEST = BenchmarkIngestEndpoint
BENCH_REPL = BenchmarkTailApply|BenchmarkReplicaBootstrap

.PHONY: all build test race vet lint gen-registry bench bench-json equivalence crash-test replica-test fault-test clean

all: vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/endpoint/ ./internal/strabon/ ./internal/stsparql/ ./internal/sciql/ ./internal/array/ ./internal/parallel/ ./internal/persist/ ./internal/replication/ ./internal/colpack/ ./internal/resilience/ ./internal/faults/ ./internal/vault/

# lint builds teleios-vet (the project-invariant analyzer suite in
# internal/lint: lockcheck, fsxcheck, ctxcheck, failpointcheck,
# errdropcheck — see docs/static-analysis.md) and runs it twice: via
# `go vet -vettool` so per-package results land in the build cache, and
# standalone over ./... for the whole-program failpoint orphan check.
lint:
	$(GO) build -o bin/teleios-vet ./cmd/teleios-vet
	$(GO) vet -vettool=$(CURDIR)/bin/teleios-vet ./...
	./bin/teleios-vet ./...

# gen-registry regenerates internal/faults/registry.go from the
# failpoint matrix in docs/operations.md (the single source of truth
# failpointcheck validates plants against).
gen-registry:
	$(GO) generate ./internal/faults

# crash-test SIGKILLs a loaded teleios-server mid-write and asserts the
# durable data dir recovers every acknowledged update.
crash-test:
	bash scripts/crashtest.sh

# replica-test boots a live topology (primary + 2 replicas + router),
# writes through the router, and asserts convergence, bit-identical
# reads, read-your-writes, and SIGKILL-a-replica recovery with zero
# acked-write loss.
replica-test:
	bash scripts/replicatest.sh

# fault-test runs the deterministic failpoint chaos suites (torn WAL
# writes, fsync failures, corrupt snapshots, torn replication streams,
# dropped clients, overload shedding) plus the resilience-primitive and
# failpoint-framework unit tests under -race.
fault-test:
	$(GO) test -race -count=1 ./internal/faults/ ./internal/resilience/
	$(GO) test -count=1 -run 'Fault|Torn|Rollback|Fsync|Corrupt|SlowDisk|Snapshot' ./internal/persist/
	$(GO) test -count=1 -run 'Bootstrap|TailFault|TornTail' ./internal/replication/
	$(GO) test -count=1 -run 'RateLimit|Shed|Degraded|WALBreak|Serializer|Disconnect|RetryAfter|EWMA|ClientKey' ./internal/endpoint/

vet:
	$(GO) vet ./...

# bench runs the tier-1 benchmark set with allocation accounting and
# leaves both the raw output (bin/bench.out, an ignored path — the repo
# root stays clean) and the JSON artefact.
bench:
	@mkdir -p bin
	$(GO) test -run '^$$' -bench '$(BENCH_TIER1)' -benchmem . | tee bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_SCIQL)' -benchmem ./internal/sciql/ | tee -a bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_ARRAY)' -benchmem ./internal/array/ | tee -a bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_PERSIST)' -benchmem -short ./internal/persist/ | tee -a bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_GROUP)' -benchmem ./internal/persist/ | tee -a bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_INGEST)' -benchmem ./internal/endpoint/ | tee -a bin/bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_REPL)' -benchmem ./internal/replication/ | tee -a bin/bench.out

# bench-json converts the last bench run (or a fresh one) into the
# machine-readable perf record.
bench-json: bench
	$(GO) run ./cmd/benchjson < bin/bench.out > BENCH_PR10.json
	@echo wrote BENCH_PR10.json

# equivalence runs the executor-equivalence gates — the vectorized
# executor against the test-only reference evaluator, in both serial and
# parallel-morsel modes (the CI gate for the morsel executor), heap
# against mapped and primary against replica, each also over a read view
# with a non-empty delta — plus the base+delta view property test and
# its single-flight concurrency test under -race.
equivalence:
	$(GO) test -run 'TestExecutorEquivalence|TestSerialParallelEquivalence|TestContextCancellation|TestHeapMappedEquivalence' ./internal/stsparql/
	$(GO) test -race -run 'TestSerialParallelEquivalence|TestConcurrentParallelQueriesUpdatesCheckpoints' ./internal/stsparql/
	$(GO) test -race -run 'TestViewMatchesFullBuild|TestSnapshotSingleFlight' ./internal/strabon/
	$(GO) test -run 'TestPrimaryReplicaEquivalence' ./internal/replication/

clean:
	rm -f bench.out bin/bench.out
