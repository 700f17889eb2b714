// Package parallel is the process-wide slot-budget worker pool shared by
// every parallel execution tier: the 2D array kernels (internal/array),
// the SciQL columnar executor's tile fan-out, the ingestion tier
// (internal/ingest), the NOA chain (internal/noa, internal/kdd) and the
// stSPARQL morsel-parallel query executor (internal/stsparql). One
// budget of GOMAXPROCS-1 extra goroutines bounds the whole process, so
// concurrent callers — a query fanning out morsels while an ingest job
// tiles a frame — never oversubscribe the machine.
//
// Slots are acquired with a non-blocking try: when none are free, or
// when a parallel section nests inside another, work simply runs inline
// on the caller's goroutine. Workers never wait for a slot and spawned
// workers always terminate, so nesting cannot deadlock.
//
// Two entry points cover the two decomposition shapes:
//
//   - Range splits [0, n) into one contiguous chunk per worker — the
//     right shape for kernels whose per-element cost is uniform.
//   - Morsels splits [0, n) into fixed-size batches pulled from a shared
//     cursor (work stealing): idle workers grab the next batch, so skew
//     — a query morsel whose rows join against far more candidates than
//     its neighbours' — self-balances. The decomposition depends only on
//     (n, size), never on scheduling, which is what lets the morsel-
//     parallel query executor promise bit-identical output at every
//     parallelism level.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// inFlight counts extra goroutines currently running across ALL
	// callers; the budget is GOMAXPROCS-1 (the caller's goroutine is the
	// implicit extra worker), re-read on every acquire so tests and
	// embedders that change GOMAXPROCS mid-process are honoured.
	inFlight atomic.Int32
	// parallelism is the maximum number of concurrent workers per
	// Range/Morsels call; 0 means GOMAXPROCS.
	parallelism atomic.Int32
)

// Parallelism reports the current per-call worker bound (GOMAXPROCS when
// unset).
func Parallelism() int {
	if n := int(parallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism bounds the number of concurrently executing workers per
// parallel call; n <= 0 restores the default (GOMAXPROCS). It returns
// the previous bound (0 meaning default) so ablations can restore it.
//
//lint:allow unreachable(test knob: the parallel, array and sciql tests pin the worker count with it)
func SetParallelism(n int) int {
	prev := int(parallelism.Load())
	if n < 0 {
		n = 0
	}
	parallelism.Store(int32(n))
	return prev
}

// acquireSlot claims one extra-goroutine slot without blocking. On a
// single-CPU machine the budget is zero and everything runs inline.
func acquireSlot() bool {
	budget := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := inFlight.Load()
		if cur >= budget {
			return false
		}
		if inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseSlot() { inFlight.Add(-1) }

// Range runs fn over [0, n) split into contiguous chunks, one chunk per
// worker, waiting for all chunks. fn must be safe to call concurrently
// on disjoint ranges. Small ranges (and Parallelism() == 1) run inline.
func Range(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	Morsels(n, chunk, workers, func(_, lo, hi int) { fn(lo, hi) })
}

// Morsels partitions [0, n) into fixed-size batches and dispatches them
// to up to `workers` goroutines through a shared cursor: each worker
// loops pulling the next unclaimed morsel until none remain, so uneven
// per-morsel cost balances automatically. Morsel m always covers
// [m*size, min(n, (m+1)*size)) — the decomposition is a pure function
// of (n, size), independent of scheduling. Returns the morsel count.
//
// fn may be called concurrently (on distinct morsels) and must not
// assume any call order. Extra workers beyond the caller are gated on
// the global slot budget; when the pool is saturated the caller drains
// every morsel inline.
func Morsels(n, size, workers int, fn func(m, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if size <= 0 {
		size = 1
	}
	nm := (n + size - 1) / size
	if workers > nm {
		workers = nm
	}
	if workers <= 1 || nm == 1 {
		for m := 0; m < nm; m++ {
			hi := (m + 1) * size
			if hi > n {
				hi = n
			}
			fn(m, m*size, hi)
		}
		return nm
	}
	var cursor atomic.Int32
	drain := func() {
		for {
			m := int(cursor.Add(1)) - 1
			if m >= nm {
				return
			}
			lo := m * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(m, lo, hi)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		if !acquireSlot() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseSlot()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return nm
}
