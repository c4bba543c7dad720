package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/tensor"
)

// TestCellHeapBudget holds a running grid's live heap to what its cells
// read. A 3×3, 128-wide RunParallel (the exchange-lockstep benchmark's
// shape) is sampled at rank 0's boundaries after a forced collection; the
// median sample must stay under 1.15 × the per-cell sum, over nine cells,
// of: its own center pair, that pair's gradient accumulators, Adam's m and
// v, the four neighbour pairs it keeps (parameters only) and two pushes in
// flight — ten pairs' worth of parameter bytes; the slack covers the
// workspaces. Held on top of that — gradient accumulators on every kept
// pair, a private copy of every push, and taken pushes kept alive by the
// freed slots of a mailbox's queue — the median is near 1.3 × the budget.
func TestCellHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state distorts heap accounting")
	}
	cfg := config.Default().WithGrid(3, 3)
	cfg.NeuronsPerHidden = 128
	cfg.BatchSize, cfg.BatchesPerIteration, cfg.DatasetSize, cfg.Iterations = 8, 1, 2000, 12
	rng := tensor.NewRNG(1)
	pair := 8 * (BuildGenerator(cfg, rng).NumParams() + BuildDiscriminator(cfg, rng).NumParams())
	budget := uint64(1.15 * float64(cfg.NumCells()*10*pair))

	var mu sync.Mutex
	var live []uint64
	opts := RunOptions{Progress: func(rank int, st IterStats) {
		if rank != 0 || st.Iteration < 2 {
			return // the first boundaries still grow the kept pairs
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mu.Lock()
		live = append(live, ms.HeapAlloc)
		mu.Unlock()
	}}
	if _, err := RunParallel(cfg, opts); err != nil {
		t.Fatal(err)
	}
	slices.Sort(live)
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("live heap over %d boundaries: median %.1f MB, max %.1f MB; budget %.1f MB (pair %.2f MB)",
		len(live), mb(live[len(live)/2]), mb(live[len(live)-1]), mb(budget), mb(uint64(pair)))
	if median := live[len(live)/2]; median > budget {
		t.Fatalf("median live heap %.1f MB exceeds the %.1f MB budget", mb(median), mb(budget))
	}
}
