package core

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cellgan/internal/telemetry"
)

// TestInstrumentedObserveAllocs is the hot-path tripwire for the metrics
// observation: recording an iteration and an exchange must not allocate,
// so instrumenting a run cannot disturb the training-loop alloc budget.
func TestInstrumentedObserveAllocs(t *testing.T) {
	reg := telemetry.NewRegistry()
	inst := newRunInstruments(reg, nil, 4)
	stats := IterStats{Iteration: 3, GenLoss: 0.7, DiscLoss: 0.6, MixtureFitness: 0.5, GenLR: 1e-3, GenReplaced: true}
	if allocs := testing.AllocsPerRun(100, func() {
		inst.observeIter(2, stats)
		inst.observeExchange(42 * time.Microsecond)
	}); allocs != 0 {
		t.Fatalf("instrumented observation allocates %.1f/op, want 0", allocs)
	}
	// The nil observer must also be free.
	var none *runInstruments
	if allocs := testing.AllocsPerRun(100, func() {
		none.observeIter(0, stats)
		none.observeExchange(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("nil observer allocates %.1f/op, want 0", allocs)
	}
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b bytes.Buffer
	reg.WriteText(&b)
	return b.String()
}

func TestRunSequentialTelemetry(t *testing.T) {
	cfg := tinyConfig()
	reg := telemetry.NewRegistry()
	var trace bytes.Buffer
	tr := telemetry.NewTrace(&trace, cfg.Seed)
	res, err := RunSequential(cfg, RunOptions{Telemetry: reg, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	want := uint64(cfg.NumCells() * cfg.Iterations)
	got := scrape(t, reg)
	if !strings.Contains(got, "train_iterations_total 8") {
		t.Fatalf("train_iterations_total missing or wrong (want %d):\n%s", want, got)
	}
	if !strings.Contains(got, `train_cell_iteration{cell="0"} 2`) {
		t.Fatalf("per-cell iteration gauge missing:\n%s", got)
	}
	if !strings.Contains(got, "train_exchange_seconds_count") {
		t.Fatalf("exchange histogram missing:\n%s", got)
	}
	if n := strings.Count(trace.String(), `"event":"iter"`); n != int(want) {
		t.Fatalf("trace has %d iter events, want %d", n, want)
	}
	if res.Cells[0].Last.Iteration != cfg.Iterations {
		t.Fatalf("run did not complete: iteration %d", res.Cells[0].Last.Iteration)
	}
}

func TestRunSequentialStops(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 50
	iters := 0
	res, err := RunSequential(cfg, RunOptions{
		Progress: func(rank int, _ IterStats) {
			if rank == cfg.NumCells()-1 {
				iters++
			}
		},
		Stop: func() bool { return iters >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[0].Last.Iteration; got != 2 {
		t.Fatalf("stopped run reached iteration %d, want 2", got)
	}
	// The stopped state must stay resumable.
	if len(res.Full) != cfg.NumCells() || res.Full[0] == nil {
		t.Fatal("stopped run did not produce full states")
	}
}

func TestRunParallelStopConsensus(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 50
	var done atomic.Int64
	res, err := RunParallel(cfg, RunOptions{
		Progress: func(int, IterStats) { done.Add(1) },
		// Trip after every rank finished iteration 1; the halt iteration
		// rides the pushes so all ranks must halt at the same boundary.
		Stop: func() bool { return done.Load() >= int64(cfg.NumCells()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Cells[0].Last.Iteration
	if first == cfg.Iterations {
		t.Fatal("run ignored the stop signal")
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != first {
			t.Fatalf("ranks stopped at different iterations: %d vs %d", c.Last.Iteration, first)
		}
	}
	if len(res.Full) != cfg.NumCells() || res.Full[0] == nil {
		t.Fatal("stopped run did not produce full states")
	}
}

func TestRunAsyncStops(t *testing.T) {
	cfg := tinyConfig()
	cfg.Iterations = 50
	var stop atomic.Bool
	var done atomic.Int64
	res, err := RunAsync(cfg, RunOptions{
		Progress: func(int, IterStats) {
			if done.Add(1) >= int64(cfg.NumCells()) {
				stop.Store(true)
			}
		},
		Stop: stop.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The halt iteration rides the pushes, so every rank stops at the same
	// boundary even without a barrier.
	for _, c := range res.Cells {
		if c.Last.Iteration == cfg.Iterations {
			t.Fatal("a rank ignored the stop signal")
		}
		if c.Last.Iteration != res.Cells[0].Last.Iteration {
			t.Fatalf("ranks stopped at iterations %d and %d", res.Cells[0].Last.Iteration, c.Last.Iteration)
		}
	}
}

func TestRunParallelTelemetryMatchesSequentialResult(t *testing.T) {
	// Instrumentation must not change training results: an instrumented
	// parallel run and an uninstrumented one are bit-identical.
	cfg := tinyConfig()
	reg := telemetry.NewRegistry()
	a, err := RunParallel(cfg, RunOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i].MixtureFitness != b.Cells[i].MixtureFitness {
			t.Fatalf("cell %d fitness diverged: %v vs %v",
				i, a.Cells[i].MixtureFitness, b.Cells[i].MixtureFitness)
		}
	}
	if !strings.Contains(scrape(t, reg), "train_iterations_total 8") {
		t.Fatal("parallel run did not record iterations")
	}
}
