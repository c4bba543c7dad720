package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// liveHeap runs cfg under RunParallel and returns the live heap sampled at
// rank 0's boundaries from iteration 2 on (the first boundaries still grow
// the kept pairs), each after a forced collection, sorted.
func liveHeap(t *testing.T, cfg config.Config) []uint64 {
	t.Helper()
	var mu sync.Mutex
	var live []uint64
	opts := RunOptions{Progress: func(rank int, st IterStats) {
		if rank != 0 || st.Iteration < 2 {
			return
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
	return live
}

// holdHeapBudget fails t when the median of live exceeds budget.
func holdHeapBudget(t *testing.T, live []uint64, budget, cell uint64) {
	t.Helper()
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("live heap over %d boundaries: median %.1f MB, max %.1f MB; budget %.1f MB (cell %.2f MB)",
		len(live), mb(live[len(live)/2]), mb(live[len(live)-1]), mb(budget), mb(cell))
	if median := live[len(live)/2]; median > budget {
		t.Fatalf("median live heap %.1f MB exceeds the %.1f MB budget", mb(median), mb(budget))
	}
}

// pairBytes returns the parameter bytes of one generator/discriminator pair.
func pairBytes(cfg config.Config) int {
	rng := tensor.NewRNG(1)
	return 8 * (BuildGenerator(cfg, rng).NumParams() + BuildDiscriminator(cfg, rng).NumParams())
}

// TestCellHeapBudget holds a running grid's live heap to what its cells
// read. A 3×3, 128-wide RunParallel (the exchange-lockstep benchmark's
// shape) is sampled at rank 0's boundaries after a forced collection; the
// median sample must stay under 1.25 × the per-cell sum, over nine cells,
// of: its own center pair, that pair's gradient accumulators, Adam's m and
// v, and two pushes in flight (the one its receivers view and the one
// released for its next encode) — six pairs' worth of parameter bytes. The
// slack covers the workspaces (about 13 % here) and the odd third push
// buffer: a sender whose receiver lagged behind one round allocates one,
// and its free list keeps it. The four neighbour pairs a cell keeps view
// the pushes and hold no parameters of their own; when each was a private
// decoded copy, the median was near 1.3 × this budget.
func TestCellHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state distorts heap accounting")
	}
	cfg := config.Default().WithGrid(3, 3)
	cfg.NeuronsPerHidden = 128
	cfg.BatchSize, cfg.BatchesPerIteration, cfg.DatasetSize, cfg.Iterations = 8, 1, 2000, 12
	cell := uint64(6 * pairBytes(cfg))
	holdHeapBudget(t, liveHeap(t, cfg), uint64(1.25*float64(cfg.NumCells())*float64(cell)), cell)
}

// dcganScratchBytes returns what a DCGAN cell's workspaces hold once warm:
// the training generator and discriminator workspaces after a train pass at
// the mini-batch size, and one forward pair after eval-batch forwards of
// both networks.
func dcganScratchBytes(cfg config.Config) int {
	rng := tensor.NewRNG(1)
	gen, disc := BuildGenerator(cfg, rng), BuildDiscriminator(cfg, rng)
	genWS, discWS := nn.NewWorkspace(), nn.NewWorkspace()
	logits := disc.ForwardWS(discWS, gen.ForwardWS(genWS, tensor.New(cfg.BatchSize, cfg.InputNeurons)))
	gen.BackwardWS(genWS, disc.InputGradWS(discWS, logits))
	disc.BackwardWS(discWS, logits)
	pair := new(nn.ForwardPair)
	fake := gen.ForwardWS(nn.NewForwardWorkspace(pair), tensor.New(evalBatchSize, cfg.InputNeurons))
	disc.ForwardWS(nn.NewForwardWorkspace(pair), fake)
	return genWS.Bytes() + discWS.Bytes() + pair.Bytes()
}

// TestDCGANCellHeapBudget is TestCellHeapBudget for the conv cells, whose
// heap is mostly workspace scratch: a 2×2 DCGAN RunParallel at the
// dcgan-compute benchmark's shape (batch 16, two batches per iteration)
// must stay under 1.15 × the per-cell sum, over four cells, of six
// parameter pairs (as in TestCellHeapBudget), the two training workspaces
// and one forward pair. The fitness and sampling forwards keep only their
// outputs beyond that; when they kept every layer's intermediates, the
// median was near 1.4 × the ten-pair budget of that time.
func TestDCGANCellHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state distorts heap accounting")
	}
	cfg := config.Default()
	cfg.NetworkType = "CNN"
	cfg.BatchSize, cfg.BatchesPerIteration, cfg.DatasetSize, cfg.Iterations = 16, 2, 2000, 8
	cell := uint64(6*pairBytes(cfg) + dcganScratchBytes(cfg))
	holdHeapBudget(t, liveHeap(t, cfg), uint64(1.15*float64(cfg.NumCells())*float64(cell)), cell)
}
