package core

import (
	"fmt"
	"sync"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/dataset"
	"cellgan/internal/grid"
	"cellgan/internal/mpi"
	"cellgan/internal/nn"
	"cellgan/internal/telemetry"
	"cellgan/internal/tensor"
)

// RunOptions tunes a training run.
type RunOptions struct {
	// Prof receives routine timings; nil records none.
	Prof *telemetry.Profile
	// Progress, when non-nil, is invoked after every cell iteration. In
	// the parallel and asynchronous modes it is called concurrently from
	// per-cell goroutines.
	Progress func(rank int, stats IterStats)
	// Resume, when non-nil, restores every cell from a checkpointed full
	// state (one entry per grid rank, in rank order) before training;
	// cells then run until cfg.Iterations. A resumed run is bit-identical
	// to an uninterrupted one.
	Resume []*FullState
	// Data overrides the training data source (e.g. real MNIST loaded
	// from IDX files); nil selects the procedural digit dataset.
	Data dataset.Source
	// Telemetry, when non-nil, receives training-loop metrics (iteration
	// counters, per-cell losses, exchange latency) for the /metrics
	// exposition. Observation is allocation-free and lock-free.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives one JSONL event per cell iteration.
	Trace *telemetry.Trace
	// Stop, when non-nil, is polled at iteration boundaries; once it
	// returns true the run finishes and returns normally with the state
	// reached so far (suitable for checkpointing). The sequential mode
	// halts at that boundary. The drivers of the parallel and
	// asynchronous modes halt within W·D iterations — W the staleness
	// window (1 in parallel mode), D the grid's influence diameter — all
	// at the same boundary: the halt iteration rides the state pushes.
	Stop func() bool
	// CheckpointEvery, with CheckpointSink set, captures a complete
	// resumable snapshot of the grid at every iteration k that is a
	// multiple of the cadence. Every mode passes every such k on every
	// cell, so the snapshot is a consistent cut — each cell's state at
	// iteration k, after it absorbed its neighbours' — and resuming from
	// it is bit-identical to never having stopped in the sequential and
	// parallel modes.
	CheckpointEvery int
	// CheckpointSink receives the periodic snapshots, in iteration
	// order, from at most one goroutine at a time. A sink error is
	// fatal to the run; a caller that prefers to keep training through
	// failed checkpoint writes (ENOSPC should not kill a 96-hour job)
	// should log/count the failure and return nil.
	CheckpointSink func(iteration int, states []*FullState) error

	// commWrap, when non-nil, wraps each rank's communicator before its
	// driver uses it — the test seam for injecting mpi.FaultyComm into
	// RunParallel and RunAsync without a cluster in between.
	commWrap func(rank int, c *mpi.Comm) *mpi.Comm
	// hooks observe the drivers' pushes, drains and installs; test-only.
	hooks *Hooks
}

// restoreIfResuming applies the matching resume state to a fresh cell.
func restoreIfResuming(cell *Cell, opts RunOptions, nCells int) error {
	if opts.Resume == nil {
		return nil
	}
	if len(opts.Resume) != nCells {
		return fmt.Errorf("core: resume has %d states, grid has %d cells", len(opts.Resume), nCells)
	}
	st := opts.Resume[cell.Rank]
	if st == nil {
		return fmt.Errorf("core: resume state for cell %d is nil", cell.Rank)
	}
	// A cell already at the target (possible in an async snapshot whose
	// laggard cells still owe work) restores and simply runs zero
	// iterations; only a state beyond the target is a caller error.
	if st.Cell.Iteration > cell.Cfg.Iterations {
		return fmt.Errorf("core: checkpoint already at iteration %d, config targets %d",
			st.Cell.Iteration, cell.Cfg.Iterations)
	}
	return cell.RestoreFull(st)
}

// CellResult is the outcome of one cell after training.
type CellResult struct {
	Rank int
	// State is the cell's final center, shared with Result.Full's entry.
	State *CellState
	// Final mixture composition (ranks + weights) and its fitness.
	MixtureRanks   []int
	MixtureWeights []float64
	MixtureFitness float64
	// Final per-iteration statistics.
	Last IterStats
}

// Result is the outcome of a whole training run.
type Result struct {
	Cfg     config.Config
	Cells   []CellResult
	Elapsed time.Duration
	Profile map[string]telemetry.RoutineStat
	// BestRank is the cell whose mixture achieved the lowest (best)
	// fitness — the sub-population the method returns (§II-B).
	BestRank int
	// Full holds each cell's complete resumable state (one per rank),
	// suitable for checkpointing.
	Full []*FullState
}

// Best returns the best cell's result.
func (r *Result) Best() CellResult { return r.Cells[r.BestRank] }

// MixtureFor reconstructs the generator mixture of a cell from the stored
// states, so callers can sample the returned generative model.
func (r *Result) MixtureFor(rank int) (*Mixture, error) {
	if rank < 0 || rank >= len(r.Cells) {
		return nil, fmt.Errorf("core: rank %d out of range", rank)
	}
	cr := r.Cells[rank]
	gens := make(map[int]*nn.Network, len(cr.MixtureRanks))
	for _, mr := range cr.MixtureRanks {
		if mr < 0 || mr >= len(r.Cells) {
			return nil, fmt.Errorf("core: mixture member %d out of range", mr)
		}
		// Seed is irrelevant: parameters are overwritten by the decode.
		gen := BuildGenerator(r.Cfg, tensor.NewRNG(0))
		if err := gen.DecodeParams(r.Cells[mr].State.GenParams); err != nil {
			return nil, fmt.Errorf("core: decoding generator of rank %d: %w", mr, err)
		}
		gens[mr] = gen
	}
	m, err := NewMixture(gens)
	if err != nil {
		return nil, err
	}
	copy(m.Weights, cr.MixtureWeights)
	return m, nil
}

// BuildGridFor constructs the toroidal grid for a configuration, applying
// its neighbourhood pattern — used by every runner (including the cluster
// slaves) so the topology is consistent across execution modes.
func BuildGridFor(cfg config.Config) (*grid.Grid, error) {
	g, err := grid.New(cfg.GridRows, cfg.GridCols)
	if err != nil {
		return nil, err
	}
	switch cfg.Neighborhood {
	case "", "moore5":
		// grid.New default.
	case "moore9":
		err = g.SetPattern(grid.Moore9)
	case "ring4":
		err = g.SetPattern(grid.Ring4)
	default:
		err = fmt.Errorf("core: unknown neighbourhood %q", cfg.Neighborhood)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// exchangeLocal distributes every cell's state to the cells whose
// neighbourhood contains it, mirroring the exchange of the parallel mode
// in shared memory: each cell's center is encoded once, in the push
// layout, into the cell's push buffer, and every receiver's kept pair
// views it, as a driver's views a delivered push. Re-encoding a buffer
// that the previous exchange's views still point at is safe here: no cell
// reads a kept pair between the encode and the re-install that follows.
func exchangeLocal(cells []*Cell, prof *telemetry.Profile) error {
	defer prof.Since(telemetry.RoutineGather, time.Now())
	states := make([]*CellState, len(cells))
	for _, c := range cells {
		c.push = c.appendState(c.push[:0], true)
		s, err := UnmarshalCellState(c.push)
		if err != nil {
			return err
		}
		states[c.Rank] = s
	}
	for _, c := range cells {
		c.clearNeighbors()
		for _, r := range c.Neighborhood() {
			if r == c.Rank {
				continue
			}
			if err := c.neighbor(r, states[r]); err != nil {
				return err
			}
		}
		if err := c.refreshMixture(); err != nil {
			return err
		}
	}
	return nil
}

// runCtx is the prologue every in-process runner shares: the validated
// configuration, the grid and the run's instruments.
type runCtx struct {
	cfg     config.Config
	opts    RunOptions
	grid    *grid.Grid
	inst    *runInstruments
	started time.Time
}

// newRun validates the inputs and builds the grid. A resume set is refused
// when two neighbouring cells' iterations differ by more than window−1:
// no exchange with staleness window window could have left them there,
// and the driver's gate would wait on the laggard forever. The error
// names the smallest window that accepts the pair.
func newRun(cfg config.Config, opts RunOptions, window int) (*runCtx, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	started := time.Now()
	g, err := BuildGridFor(cfg)
	if err != nil {
		return nil, err
	}
	if len(opts.Resume) == g.Size() {
		for r := range opts.Resume {
			for _, nb := range g.Neighborhood(r) {
				lo, hi := min(r, nb), max(r, nb)
				a, b := opts.Resume[lo], opts.Resume[hi]
				if a == nil || b == nil {
					continue
				}
				if gap := max(a.Cell.Iteration-b.Cell.Iteration, b.Cell.Iteration-a.Cell.Iteration); gap >= window {
					return nil, fmt.Errorf("core: resume states of neighbouring cells %d and %d are at iterations %d and %d, further apart than a staleness window of %d allows; an async resume with a window of at least %d accepts them",
						lo, hi, a.Cell.Iteration, b.Cell.Iteration, window, gap+1)
				}
			}
		}
	}
	return &runCtx{cfg: cfg, opts: opts, grid: g, started: started,
		inst: newRunInstruments(opts.Telemetry, opts.Trace, g.Size())}, nil
}

// newCell builds the cell of one rank, restored from opts.Resume when the
// run is resuming.
func (r *runCtx) newCell(rank int) (*Cell, error) {
	cell, err := NewCellWithData(r.cfg, rank, r.grid, r.opts.Prof, r.opts.Data)
	if err != nil {
		return nil, err
	}
	return cell, restoreIfResuming(cell, r.opts, r.grid.Size())
}

// result assembles the run's outcome from its trained cells and the last
// statistics each one reported.
func (r *runCtx) result(cells []*Cell, lasts []IterStats) (*Result, error) {
	res := &Result{Cfg: r.cfg, Cells: make([]CellResult, len(cells)), Full: make([]*FullState, len(cells))}
	for i, c := range cells {
		full, err := c.FullState()
		if err != nil {
			return nil, err
		}
		res.Cells[i] = CellResult{
			Rank:           c.Rank,
			State:          full.Cell,
			MixtureRanks:   append([]int(nil), c.mixture.Ranks...),
			MixtureWeights: append([]float64(nil), c.mixture.Weights...),
			MixtureFitness: lasts[i].MixtureFitness,
			Last:           lasts[i],
		}
		res.Full[i] = full
		if res.Cells[i].MixtureFitness < res.Cells[res.BestRank].MixtureFitness {
			res.BestRank = i
		}
	}
	res.Elapsed = time.Since(r.started)
	res.Profile = r.opts.Prof.Snapshot()
	return res, nil
}

// eachRank runs f for ranks 0..n-1 on one goroutine each, waits for all of
// them and returns the error reported first — the root cause, since peers
// only ever fail in reaction to it.
func eachRank(n int, f func(rank int) error) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs <- f(rank)
		}(rank)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overWorld trains the grid with one goroutine per cell over an in-process
// MPI world, each running a Driver of that one cell with staleness window
// window. Every cell exists before any rank starts its driver, so a rank
// whose set-up fails cannot strand peers already waiting on it.
func (r *runCtx) overWorld(window int) (*Result, error) {
	n := r.grid.Size()
	world, err := mpi.NewWorld(n)
	if err != nil {
		return nil, err
	}
	defer world.Close()
	cells := make([]*Cell, n)
	if err := eachRank(n, func(rank int) (err error) {
		cells[rank], err = r.newCell(rank)
		return err
	}); err != nil {
		return nil, err
	}
	coll := NewCkptCollector(r.opts.CheckpointEvery, r.opts.CheckpointSink, r.opts.Resume, n)
	lasts := make([]IterStats, n)
	if err := eachRank(n, func(rank int) error {
		comm, err := world.Comm(rank)
		if err == nil {
			if r.opts.commWrap != nil {
				comm = r.opts.commWrap(rank, comm)
			}
			d := &Driver{Comm: comm, Tag: stateTag, Window: window, Target: r.cfg.Iterations, Stop: r.opts.Stop,
				Progress: r.opts.Progress, Hooks: r.opts.hooks, inst: r.inst, coll: coll}
			o := d.Own(cells[rank])
			err = d.Run()
			lasts[rank] = o.Last
		}
		return err
	}); err != nil {
		return nil, err
	}
	return r.result(cells, lasts)
}

// RunSequential trains the grid in a single process, cells taking turns —
// the paper's "single core" baseline of Table III. The communication
// structure (per-iteration neighbourhood exchange) is preserved so the
// algorithm is identical to the parallel mode.
func RunSequential(cfg config.Config, opts RunOptions) (*Result, error) {
	r, err := newRun(cfg, opts, 1)
	if err != nil {
		return nil, err
	}
	cells := make([]*Cell, r.grid.Size())
	for rank := range cells {
		if cells[rank], err = r.newCell(rank); err != nil {
			return nil, err
		}
	}
	coll := NewCkptCollector(opts.CheckpointEvery, opts.CheckpointSink, opts.Resume, len(cells))
	exchange := func() error {
		t0 := time.Now()
		if err := exchangeLocal(cells, opts.Prof); err != nil {
			return err
		}
		r.inst.observeExchange(time.Since(t0))
		return nil
	}
	// Initial exchange so iteration 1 already sees the neighbourhood (and
	// a resumed run re-sees it).
	if err := exchange(); err != nil {
		return nil, err
	}
	lasts := make([]IterStats, len(cells))
	for cells[0].Iteration() < cfg.Iterations && !stopRequested(opts) {
		for _, c := range cells {
			stats, err := c.Iterate()
			if err != nil {
				return nil, err
			}
			lasts[c.Rank] = stats
			r.inst.observeIter(c.Rank, stats)
			if opts.Progress != nil {
				opts.Progress(c.Rank, stats)
			}
		}
		if err := exchange(); err != nil {
			return nil, err
		}
		// Post-exchange boundary: every cell is at the same iteration,
		// the consistent cut a periodic checkpoint needs.
		for _, c := range cells {
			if err := coll.Deposit(c.Rank, c.Iteration(), c.FullState); err != nil {
				return nil, err
			}
		}
	}
	return r.result(cells, lasts)
}

// RunParallel trains the grid with one goroutine per cell over an
// in-process MPI world: each rank iterates and exchanges centers with its
// grid neighbourhood after every iteration, waiting for every neighbour's
// center of the same iteration — the structure of the paper's slave
// processes on the LOCAL communicator, which run the same Driver. It is
// the staleness window 1 of RunAsync, and bit-identical to RunSequential.
func RunParallel(cfg config.Config, opts RunOptions) (*Result, error) {
	r, err := newRun(cfg, opts, 1)
	if err != nil {
		return nil, err
	}
	return r.overWorld(1)
}

// RunAsync trains the grid with asynchronous cells, the execution style
// §II-B describes: each cell iterates at its own pace, pushes its updated
// center to the cells whose neighbourhoods contain it (its influence set),
// and before each iteration absorbs whatever neighbour updates have
// arrived — no barrier, no collective. Fast cells are held back only by
// the bounded-staleness window S (Cfg.AsyncStaleness): a cell blocks before
// an iteration that would leave it more than S versions ahead of a
// neighbour's last absorbed snapshot. The mode is run-to-run
// nondeterministic (neighbour staleness depends on scheduling); resumed
// cells may sit up to S−1 iterations apart from their neighbours.
func RunAsync(cfg config.Config, opts RunOptions) (*Result, error) {
	window := cfg.EffectiveAsyncStaleness()
	r, err := newRun(cfg, opts, window)
	if err != nil {
		return nil, err
	}
	return r.overWorld(window)
}

// ErrUnknownMode is returned by Run for an unrecognised mode name.
var ErrUnknownMode = fmt.Errorf("core: unknown run mode")

// Run dispatches to a training mode by name: "seq", "par" or "async".
func Run(mode string, cfg config.Config, opts RunOptions) (*Result, error) {
	switch mode {
	case "seq":
		return RunSequential(cfg, opts)
	case "par":
		return RunParallel(cfg, opts)
	case "async":
		return RunAsync(cfg, opts)
	default:
		return nil, fmt.Errorf("%w: %q (want seq, par or async)", ErrUnknownMode, mode)
	}
}
