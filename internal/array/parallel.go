package array

import "repro/internal/parallel"

// The 2D kernels (Tile, ConnectedComponents, Map, Combine) split their
// row or cell ranges over the process-wide slot-budget pool in
// internal/parallel, shared with the ingestion tier, the NOA chain and the stSPARQL morsel executor. Small
// inputs skip the machinery entirely; parallel.SetParallelism bounds the
// chunks per call (the cores-scaling ablation measures 1, 2, 4 and
// GOMAXPROCS).

// minParallelCells is the smallest range worth splitting: below this the
// goroutine handoff costs more than the work.
const minParallelCells = 16 << 10

// parallelRows is parallel.Range gated on total work: kernels call it
// with the row count and the cells-per-row so tiny images skip the
// machinery.
func parallelRows(rows, cellsPerRow int, fn func(lo, hi int)) {
	if rows*cellsPerRow < minParallelCells {
		fn(0, rows)
		return
	}
	parallel.Range(rows, fn)
}
