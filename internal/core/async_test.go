package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestRunAsyncSmoke(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 3
	res, err := RunAsync(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != cfg.NumCells() {
		t.Fatalf("cells %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != cfg.Iterations {
			t.Fatalf("rank %d stopped at %d", c.Rank, c.Last.Iteration)
		}
		if math.IsNaN(c.MixtureFitness) {
			t.Fatalf("rank %d NaN fitness", c.Rank)
		}
	}
}

func TestRunAsyncAbsorbsNeighbors(t *testing.T) {
	// After a few iterations every cell must have grown its mixture
	// beyond its own generator: neighbour updates arrived and were
	// absorbed despite the lack of any barrier.
	cfg := tinyConfig()
	cfg.Iterations = 4
	res, err := RunAsync(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if len(c.MixtureRanks) < 2 {
			t.Fatalf("rank %d mixture never grew: %v", c.Rank, c.MixtureRanks)
		}
	}
}

func TestRunAsyncProgress(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 2
	var mu sync.Mutex
	count := 0
	_, err := RunAsync(cfg, RunOptions{Progress: func(rank int, s IterStats) {
		mu.Lock()
		count++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Iterations * cfg.NumCells(); count != want {
		t.Fatalf("progress called %d times, want %d", count, want)
	}
}

func TestRunAsyncRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.GridRows = 0
	if _, err := RunAsync(cfg, RunOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 1
	for _, mode := range []string{"seq", "par", "async"} {
		res, err := Run(mode, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if len(res.Cells) != cfg.NumCells() {
			t.Fatalf("mode %s: %d cells", mode, len(res.Cells))
		}
	}
	if _, err := Run("gpu", cfg, RunOptions{}); !errors.Is(err, ErrUnknownMode) {
		t.Fatalf("unknown mode error = %v", err)
	}
}

// TestUpdateNeighborIgnoresOutsiders: an exchange installs only its
// neighbours' snapshots, never a stranger's or the cell's own.
func TestUpdateNeighborIgnoresOutsiders(t *testing.T) {
	cfg := tinyConfig() // 2×2: neighbourhood of 0 = {0,1,2}
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 2)
	c3, _ := newTestCell(t, cfg, 3)
	s3, err := c3.State()
	if err != nil {
		t.Fatal(err)
	}
	x.Offer(s3)
	// Own state is a no-op.
	s0, err := c0.State()
	if err != nil {
		t.Fatal(err)
	}
	x.Offer(s0)
	if _, err := x.Settle(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c0.genNbrs[3]; ok {
		t.Fatal("non-neighbour absorbed")
	}
	if len(c0.Mixture().Ranks) != 1 {
		t.Fatalf("mixture %v after self-update", c0.Mixture().Ranks)
	}
}

func TestUpdateNeighborGrowsMixture(t *testing.T) {
	cfg := tinyConfig()
	c0, _ := newTestCell(t, cfg, 0)
	x := NewExchange(c0, 2)
	c1, _ := newTestCell(t, cfg, 1)
	s1, err := c1.State()
	if err != nil {
		t.Fatal(err)
	}
	settle := func() {
		t.Helper()
		x.Offer(s1)
		if ready, err := x.Settle(nil); err != nil || !ready {
			t.Fatalf("settle: ready %v, err %v", ready, err)
		}
	}
	settle()
	if len(c0.Mixture().Ranks) != 2 {
		t.Fatalf("mixture %v", c0.Mixture().Ranks)
	}
	// Refreshing the same rank keeps the mixture size stable.
	settle()
	if len(c0.Mixture().Ranks) != 2 {
		t.Fatalf("mixture grew on refresh: %v", c0.Mixture().Ranks)
	}
}

// TestAsyncRankErrorReturns: a rank that exits on an error must release
// its peers from the staleness gate (with S=1 they are gated one
// iteration later, waiting for a snapshot that will never come) and
// RunAsync must return that error.
func TestAsyncRankErrorReturns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 6
	cfg.AsyncStaleness = 1
	errSink := errors.New("sink full")
	err := runWithin(t, time.Minute, func() (*Result, error) {
		return RunAsync(cfg, RunOptions{
			CheckpointEvery: 2,
			CheckpointSink:  func(int, []*FullState) error { return errSink },
		})
	})
	if !errors.Is(err, errSink) {
		t.Fatalf("RunAsync returned %v, want the sink's error", err)
	}
}
