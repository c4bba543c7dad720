package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/grid"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

func TestRunSequentialSmoke(t *testing.T) {
	cfg := tinyConfig()
	prof := new(telemetry.Profile)
	res, err := RunSequential(cfg, RunOptions{Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != cfg.NumCells() {
		t.Fatalf("cells %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.State == nil {
			t.Fatalf("rank %d missing state", c.Rank)
		}
		if c.Last.Iteration != cfg.Iterations {
			t.Fatalf("rank %d stopped at iteration %d", c.Rank, c.Last.Iteration)
		}
		if math.IsNaN(c.MixtureFitness) {
			t.Fatalf("rank %d NaN mixture fitness", c.Rank)
		}
	}
	if res.BestRank < 0 || res.BestRank >= len(res.Cells) {
		t.Fatalf("best rank %d", res.BestRank)
	}
	for _, c := range res.Cells {
		if c.MixtureFitness < res.Best().MixtureFitness {
			t.Fatal("BestRank is not the minimum mixture fitness")
		}
	}
	// All four paper routines must appear in the profile, including gather.
	for _, r := range []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineMutate,
		telemetry.RoutineUpdateGenomes, telemetry.RoutineGather} {
		if prof.Get(r).Count == 0 {
			t.Fatalf("routine %q missing from profile", r)
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// TestRunProfileCountsEachIterateOnce pins Table IV's call counts: every
// mode records exactly one train, mutate and update-genomes call per
// Cell.Iterate into the one profile its cells share, plus its exchanges.
func TestRunProfileCountsEachIterateOnce(t *testing.T) {
	cfg := tinyConfig()
	iterates := int64(cfg.NumCells() * cfg.Iterations)
	for mode, gathers := range map[string]int64{
		"seq":   int64(cfg.Iterations + 1),                    // one exchangeLocal per round
		"par":   int64(cfg.NumCells() * (cfg.Iterations + 1)), // one exchange per rank and round
		"async": 0,                                            // pushes and drains are schedule-dependent
	} {
		t.Run(mode, func(t *testing.T) {
			prof := new(telemetry.Profile)
			res, err := Run(mode, cfg, RunOptions{Prof: prof})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineMutate, telemetry.RoutineUpdateGenomes} {
				if got := prof.Get(r).Count; got != iterates {
					t.Errorf("%s: %d calls for %d Iterate calls", r, got, iterates)
				}
			}
			if got := prof.Get(telemetry.RoutineGather).Count; got == 0 || (gathers > 0 && got != gathers) {
				t.Errorf("gather: %d calls, want %d", got, gathers)
			}
			if res.Profile[telemetry.RoutineTrain.String()] != prof.Get(telemetry.RoutineTrain) {
				t.Errorf("Result.Profile %v disagrees with the run's profile", res.Profile)
			}
		})
	}
}

// TestDriverProfileTilesThreadTime: a Driver that owns several cells (as
// the tolerant cluster slave does after an adoption) times each gather
// from the end of the thread's previous routine, not from its own cell's
// last Iterate, so the Table IV routines it records add up to no more than
// the thread's wall time. One Driver owns every cell of a 2×2 grid on a
// one-rank world; the counts are TestRunProfileCountsEachIterateOnce's.
func TestDriverProfileTilesThreadTime(t *testing.T) {
	cfg := tinyConfig()
	world := mpi.MustWorld(1)
	defer world.Close()
	prof := new(telemetry.Profile)
	g := grid.MustNew(cfg.GridRows, cfg.GridCols)
	cells := make([]*Cell, cfg.NumCells())
	for r := range cells {
		c, err := NewCell(cfg, r, g, prof)
		if err != nil {
			t.Fatal(err)
		}
		cells[r] = c
	}
	d := &Driver{Comm: world.MustComm(0), Tag: stateTag, Target: cfg.Iterations, Owners: make([]int, len(cells))}
	for _, c := range cells {
		d.Own(c)
	}
	t0 := time.Now()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	var sum time.Duration
	for _, r := range []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineUpdateGenomes, telemetry.RoutineMutate, telemetry.RoutineGather} {
		sum += prof.Get(r).Total
	}
	if sum > wall {
		t.Errorf("routines sum to %v, %.2f× the thread's %v", sum, float64(sum)/float64(wall), wall)
	}
	if got, want := prof.Get(telemetry.RoutineGather).Count, int64(len(cells)*(cfg.Iterations+1)); got != want {
		t.Errorf("gather: %d calls, want %d", got, want)
	}
}

func TestRunParallelSmoke(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunParallel(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != cfg.NumCells() {
		t.Fatalf("cells %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != cfg.Iterations {
			t.Fatalf("rank %d at iteration %d", c.Rank, c.Last.Iteration)
		}
	}
}

// TestSequentialParallelEquivalence: the parallel implementation must
// compute the same result as the sequential baseline: same seeds, same
// exchange schedule, so the final state must match bit-for-bit. On the 2×2
// torus nearly every cell neighbours every other; 4×4 is the first paper
// grid on which the ranks a cell hears from (5) are a small part of the
// grid (16), and moore9/ring4 change which ranks those are.
//
// The faulty row duplicates and reorders the parallel run's pushes: at
// window 1 each cell must still install exactly its neighbours' centers of
// the iteration it is at, never a newer one that arrived first.
func TestSequentialParallelEquivalence(t *testing.T) { checkSequentialParallel(t) }

// TestRecycledPushPoison is TestSequentialParallelEquivalence with every
// push overwritten with 0xFF as its last receiver releases it: a receiver
// that released a push before it stopped reading it would train on the
// poison, and its bytes would leave the sequential run's. The async rows
// run RunAsync at W = 2 and W = 4, where a push is viewed longest — up to
// W versions of one sender at once: with no sequential run to match,
// every cell must reach its target and every final state and mixture must
// be finite, as poison (NaN as float64) would not leave them. They keep
// to a 2×2 grid: make stress runs them 40 times.
func TestRecycledPushPoison(t *testing.T) {
	mpi.PoisonRecycled(true)
	defer mpi.PoisonRecycled(false)
	checkSequentialParallel(t)
	for _, w := range []int{2, 4} {
		t.Run(fmt.Sprintf("async W=%d", w), func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Iterations, cfg.AsyncStaleness = 6, w
			res, err := RunAsync(cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for r, c := range res.Cells {
				if c.Last.Iteration != cfg.Iterations {
					t.Fatalf("rank %d stopped at iteration %d of %d", r, c.Last.Iteration, cfg.Iterations)
				}
				if part := nonFinitePart(t, res.Full[r]); part != "" {
					t.Fatalf("rank %d: non-finite %s in the final state", r, part)
				}
				m, err := res.MixtureFor(r)
				if err != nil {
					t.Fatal(err)
				}
				samples := m.Sample(8, cfg.InputNeurons, tensor.NewRNG(1))
				if !tensor.AllFinite(append([]*tensor.Mat{samples}, tensor.FromSlice(1, len(m.Weights), m.Weights))) {
					t.Fatalf("rank %d: non-finite mixture weights or samples", r)
				}
			}
		})
	}
}

// nonFinitePart names the first part of f, a full state of Adam-trained
// cells, holding a NaN or ±Inf, or returns "".
func nonFinitePart(t *testing.T, f *FullState) string {
	t.Helper()
	s := f.Cell
	scalars := append([]float64{s.GenLR, s.DiscLR, s.GenFitness, s.DiscFitness}, f.MixtureWeights...)
	if !tensor.AllFinite([]*tensor.Mat{tensor.FromSlice(1, len(scalars), scalars)}) {
		return "learning rate, fitness or mixture weight"
	}
	const adamHeader = 5 * 8 // the hyperparameters and step count ahead of the moments
	for name, blob := range map[string][]byte{
		"generator": s.GenParams, "discriminator": s.DiscParams,
		"generator moments": f.GenOpt[adamHeader:], "discriminator moments": f.DiscOpt[adamHeader:],
	} {
		for len(blob) > 0 {
			ms, rest, err := tensor.DecodeMats(blob)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !tensor.AllFinite(ms) {
				return name
			}
			blob = rest
		}
	}
	return ""
}

func checkSequentialParallel(t *testing.T) {
	plan := mpi.FaultPlan{Seed: 5, DupProb: 0.3, DelayProb: 0.4, MaxDelayHold: 1, Tags: []int{stateTag}}
	shapes := map[string]func(*config.Config, *RunOptions){
		"2x2":        func(*config.Config, *RunOptions) {},
		"4x4":        func(c *config.Config, _ *RunOptions) { *c = c.WithGrid(4, 4) },
		"3x3 moore9": func(c *config.Config, _ *RunOptions) { *c = c.WithGrid(3, 3); c.Neighborhood = "moore9" },
		"3x3 ring4":  func(c *config.Config, _ *RunOptions) { *c = c.WithGrid(3, 3); c.Neighborhood = "ring4" },
		"2x2 faulty comm": func(_ *config.Config, o *RunOptions) {
			o.commWrap = func(_ int, c *mpi.Comm) *mpi.Comm { return mpi.FaultyComm(c, plan) }
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Iterations = 3
			var opts RunOptions
			shape(&cfg, &opts)
			seq, err := RunSequential(cfg, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunParallel(cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for r := range seq.Cells {
				s, p := seq.Cells[r], par.Cells[r]
				if s.Last.GenLoss != p.Last.GenLoss || s.Last.DiscLoss != p.Last.DiscLoss {
					t.Fatalf("rank %d losses differ: %+v vs %+v", r, s.Last, p.Last)
				}
				if s.MixtureFitness != p.MixtureFitness {
					t.Fatalf("rank %d mixture fitness %v vs %v", r, s.MixtureFitness, p.MixtureFitness)
				}
				if !bytes.Equal(seq.Full[r].Marshal(), par.Full[r].Marshal()) {
					t.Fatalf("rank %d full state differs between modes", r)
				}
			}
			if seq.BestRank != par.BestRank {
				t.Fatalf("best rank differs: %d vs %d", seq.BestRank, par.BestRank)
			}
		})
	}
}

// TestResultStateIsFullCell: a result encodes each cell's center once, so
// the state a CellResult reports is the one its full state carries.
func TestResultStateIsFullCell(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 1
	for mode, run := range map[string]func(config.Config, RunOptions) (*Result, error){
		"seq": RunSequential, "par": RunParallel,
	} {
		res, err := run(cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Cells {
			if !bytes.Equal(c.State.Marshal(), res.Full[i].Cell.Marshal()) {
				t.Errorf("%s: cell %d result state differs from its full state's", mode, i)
			}
		}
	}
}

func TestRunProgressCallback(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 2
	var mu sync.Mutex
	calls := map[int]int{}
	_, err := RunParallel(cfg, RunOptions{Progress: func(rank int, stats IterStats) {
		mu.Lock()
		calls[rank]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < cfg.NumCells(); r++ {
		if calls[r] != cfg.Iterations {
			t.Fatalf("rank %d progress called %d times", r, calls[r])
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 0
	if _, err := RunSequential(cfg, RunOptions{}); err == nil {
		t.Fatal("sequential accepted bad config")
	}
	if _, err := RunParallel(cfg, RunOptions{}); err == nil {
		t.Fatal("parallel accepted bad config")
	}
}

func TestMixtureForReconstruction(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 1
	res, err := RunSequential(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.MixtureFor(res.BestRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ranks) != len(res.Best().MixtureRanks) {
		t.Fatalf("mixture size %d want %d", len(m.Ranks), len(res.Best().MixtureRanks))
	}
	out := m.Sample(4, cfg.InputNeurons, tensor.NewRNG(1))
	if out.Rows != 4 || out.Cols != cfg.OutputNeurons {
		t.Fatalf("reconstructed sample %d×%d", out.Rows, out.Cols)
	}
	if _, err := res.MixtureFor(-1); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestTrainingImprovesGeneratorFitness(t *testing.T) {
	// Over a handful of iterations on the tiny config the generator
	// mixture fitness should drop below the untrained level.
	cfg := tinyConfig()
	cfg.Iterations = 8
	cfg.BatchesPerIteration = 4
	var mu sync.Mutex
	var first, last float64
	seen := false
	_, err := RunSequential(cfg, RunOptions{Progress: func(rank int, s IterStats) {
		if rank != 0 {
			return
		}
		mu.Lock()
		if !seen {
			first = s.MixtureFitness
			seen = true
		}
		last = s.MixtureFitness
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no progress observed")
	}
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatalf("fitness NaN: %v -> %v", first, last)
	}
	if last > first*1.5+0.5 {
		t.Fatalf("generator fitness diverged: %v -> %v", first, last)
	}
}

// runWithin fails the test when run does not return inside the limit — the
// hang regressions below must fail fast instead of stalling the package.
func runWithin(t *testing.T, limit time.Duration, run func() (*Result, error)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := run()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("run still blocked after %s", limit)
		return nil
	}
}

// TestParallelRankErrorReturns: one rank failing mid-run (here the rank
// that completes a snapshot whose sink errors) must stop its peers at the
// same exchange boundary and surface its own error, not strand them in
// the allgather.
func TestParallelRankErrorReturns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 4
	errSink := errors.New("sink full")
	err := runWithin(t, time.Minute, func() (*Result, error) {
		return RunParallel(cfg, RunOptions{
			CheckpointEvery: 1,
			CheckpointSink:  func(int, []*FullState) error { return errSink },
		})
	})
	if !errors.Is(err, errSink) {
		t.Fatalf("RunParallel returned %v, want the sink's error", err)
	}
}

// TestResumeRefusesSpreadBeyondWindow: neighbouring cells of a resume set
// may sit at most W−1 iterations apart, so the lockstep modes want one
// iteration everywhere and an async run with window W accepts a spread of
// W−1 but not W.
func TestResumeRefusesSpreadBeyondWindow(t *testing.T) {
	cfg := tinyConfig()
	at := func(iters int) []*FullState {
		c := cfg
		c.Iterations = iters
		res, err := RunSequential(c, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Full
	}
	one, three := at(1), at(3)
	// Cell 0 lags its neighbour cell 1 by one iteration, then by two.
	spread1 := append([]*FullState{one[0]}, at(2)[1:]...)
	spread2 := append([]*FullState{one[0]}, three[1:]...)
	cfg.Iterations = 4
	if _, err := RunParallel(cfg, RunOptions{Resume: spread1}); err == nil || !strings.Contains(err.Error(), "cells 0 and 1") {
		t.Fatalf("RunParallel resumed a spread of 1: %v", err)
	}
	if _, err := RunSequential(cfg, RunOptions{Resume: spread1}); err == nil {
		t.Fatal("RunSequential resumed a spread of 1")
	}
	cfg.AsyncStaleness = 2
	if _, err := RunAsync(cfg, RunOptions{Resume: spread2}); err == nil || !strings.Contains(err.Error(), "window of at least 3") {
		t.Fatalf("window-2 RunAsync resumed a spread of 2, or did not name window 3: %v", err)
	}
	res, err := RunAsync(cfg, RunOptions{Resume: spread1})
	if err != nil {
		t.Fatalf("window-2 RunAsync refused a spread of 1: %v", err)
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != cfg.Iterations {
			t.Fatalf("resumed cell %d stopped at %d", c.Rank, c.Last.Iteration)
		}
	}
}

// TestResumeSkipsStartingCheckpoint: a run resumed at a cadence boundary
// does not hand the sink the set it just resumed from; the next boundary
// is the first snapshot, in every mode.
func TestResumeSkipsStartingCheckpoint(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 2
	half, err := RunSequential(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Iterations = 4
	for mode, run := range map[string]func(config.Config, RunOptions) (*Result, error){
		"seq": RunSequential, "par": RunParallel, "async": RunAsync,
	} {
		var got []int
		if _, err := run(cfg, RunOptions{Resume: half.Full, CheckpointEvery: 2,
			CheckpointSink: func(k int, _ []*FullState) error { got = append(got, k); return nil },
		}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !slices.Equal(got, []int{4}) {
			t.Errorf("%s: sink called at %v, want [4]", mode, got)
		}
	}
}
