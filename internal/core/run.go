package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// parallel mode it is called concurrently from per-cell goroutines.
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
	// returns true the run finishes the current iteration, performs a
	// final exchange where the mode requires one, and returns normally
	// with the state reached so far (suitable for checkpointing). In
	// parallel mode the decision is reached by consensus: every exchange
	// allgathers a stop vote, so every rank halts at the same boundary.
	Stop func() bool
	// CheckpointEvery, with CheckpointSink set, captures a complete
	// resumable snapshot of the grid at every iteration k that is a
	// multiple of the cadence. In the sequential and parallel modes the
	// snapshot is taken at the post-exchange boundary where every cell
	// is exactly at iteration k, so resuming from it is bit-identical
	// to never having stopped. In the asynchronous mode cells cross
	// boundaries at their own pace; the sink receives best-effort
	// newest-wins snapshots (one full state per cell, iterations may
	// differ) keyed by the minimum iteration present.
	CheckpointEvery int
	// CheckpointSink receives the periodic snapshots, in iteration
	// order, from at most one goroutine at a time. A sink error is
	// fatal to the run; a caller that prefers to keep training through
	// failed checkpoint writes (ENOSPC should not kill a 96-hour job)
	// should log/count the failure and return nil.
	CheckpointSink func(iteration int, states []*FullState) error

	// commWrap, when non-nil, wraps each rank's communicator before the
	// asynchronous exchange loop uses it — the test seam for injecting
	// mpi.FaultyComm into RunAsync without a cluster in between.
	commWrap func(rank int, c *mpi.Comm) *mpi.Comm
	// asyncHooks observe pushes and applies in the asynchronous mode;
	// test-only.
	asyncHooks *asyncTestHooks
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

// uniformResumeIteration rejects resume sets whose cells disagree on the
// iteration: the lockstep modes (seq, par) assume the whole grid is at
// one boundary. Async snapshots may mix iterations and must be resumed
// in async mode.
func uniformResumeIteration(states []*FullState) error {
	for _, st := range states[1:] {
		if st != nil && states[0] != nil && st.Cell.Iteration != states[0].Cell.Iteration {
			return fmt.Errorf("core: resume states mix iterations %d and %d (an async snapshot?); only mode \"async\" accepts that",
				states[0].Cell.Iteration, st.Cell.Iteration)
		}
	}
	return nil
}

// CellResult is the outcome of one cell after training.
type CellResult struct {
	Rank  int
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
	// suitable for checkpointing; populated by the sequential and
	// parallel runners.
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
// in shared memory.
func exchangeLocal(cells []*Cell, prof *telemetry.Profile) error {
	defer prof.Since(telemetry.RoutineGather, time.Now())
	states := make(map[int]*CellState, len(cells))
	for _, c := range cells {
		s, err := c.State()
		if err != nil {
			return err
		}
		states[c.Rank] = s
	}
	for _, c := range cells {
		if err := c.SetNeighbors(states); err != nil {
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
	// failed is raised by the first rank whose loop returns an error, so
	// ranks with no collective to carry the news (async) stop too.
	failed atomic.Bool
}

// newRun validates the inputs and builds the grid. lockstep runs reject
// resume sets whose cells sit at different iterations.
func newRun(cfg config.Config, opts RunOptions, lockstep bool) (*runCtx, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lockstep && opts.Resume != nil {
		if err := uniformResumeIteration(opts.Resume); err != nil {
			return nil, err
		}
	}
	started := time.Now()
	g, err := BuildGridFor(cfg)
	if err != nil {
		return nil, err
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

// stopping reports whether ranks should halt at their next boundary: the
// caller asked, or a peer rank failed.
func (r *runCtx) stopping() bool { return stopRequested(r.opts) || r.failed.Load() }

// result assembles the run's outcome from its trained cells and the last
// statistics each one reported.
func (r *runCtx) result(cells []*Cell, lasts []IterStats) (*Result, error) {
	res := &Result{Cfg: r.cfg, Cells: make([]CellResult, len(cells)), Full: make([]*FullState, len(cells))}
	for i, c := range cells {
		state, err := c.State()
		if err != nil {
			return nil, err
		}
		full, err := c.FullState()
		if err != nil {
			return nil, err
		}
		res.Cells[i] = CellResult{
			Rank:           c.Rank,
			State:          state,
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
// MPI world; loop is one rank's life and returns the last statistics it
// produced. Every cell exists before any rank enters loop, so a rank
// whose set-up fails cannot strand peers already waiting on it.
func (r *runCtx) overWorld(loop func(comm *mpi.Comm, cell *Cell) (IterStats, error)) (*Result, error) {
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
	lasts := make([]IterStats, n)
	if err := eachRank(n, func(rank int) error {
		comm, err := world.Comm(rank)
		if err == nil {
			lasts[rank], err = loop(comm, cells[rank])
		}
		if err != nil {
			r.failed.Store(true)
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
	r, err := newRun(cfg, opts, true)
	if err != nil {
		return nil, err
	}
	cells := make([]*Cell, r.grid.Size())
	for rank := range cells {
		if cells[rank], err = r.newCell(rank); err != nil {
			return nil, err
		}
	}
	coll := newCkptCollector(opts, len(cells))
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
			if err := coll.deposit(c); err != nil {
				return nil, err
			}
		}
	}
	return r.result(cells, lasts)
}

// RunParallel trains the grid with one goroutine per cell over an
// in-process MPI world: each rank iterates independently and the ranks
// exchange centers with their grid neighbourhoods after every iteration —
// the structure of the paper's slave processes on the LOCAL communicator,
// which run the same RankLoop.
func RunParallel(cfg config.Config, opts RunOptions) (*Result, error) {
	r, err := newRun(cfg, opts, true)
	if err != nil {
		return nil, err
	}
	coll := newCkptCollector(opts, r.grid.Size())
	return r.overWorld(func(comm *mpi.Comm, cell *Cell) (IterStats, error) {
		last, _, err := RankLoop{Comm: comm, Cell: cell, Stop: opts.Stop, Progress: opts.Progress,
			inst: r.inst, coll: coll}.Run()
		return last, err
	})
}

// RankLoop is one rank's share of the lockstep algorithm: train the cell,
// exchanging centers with its grid neighbourhood after each iteration. The
// cell's grid rank is its rank in Comm. RunParallel runs one per goroutine
// over an in-process world; a cluster slave runs one on the LOCAL
// communicator.
type RankLoop struct {
	Comm *mpi.Comm
	Cell *Cell
	// Stop, when non-nil, is polled before every exchange; once any rank
	// sees it return true, all ranks halt after that exchange.
	Stop func() bool
	// Progress, when non-nil, is invoked after every iteration, before the
	// exchange that follows it.
	Progress func(rank int, stats IterStats)

	inst *runInstruments
	coll *ckptCollector

	// sources are the ranks whose centers this cell trains against, dests
	// the ranks that train against this cell's; wire is the encode buffer
	// every round reuses.
	sources, dests []int
	wire           []byte
}

// Run exchanges once (so iteration 1 already sees the neighbourhood, and
// a resumed cell re-sees it), then iterates and exchanges until the cell
// reaches its configured iteration count or the ranks agree to halt. It
// returns the last iteration's statistics and whether the loop was halted.
//
// A rank that fails outside the collectives does not just leave: peers
// would block in their next exchange for a vote and a center that never
// come. It joins that exchange with the halt vote set and only then
// returns its error, so every peer stops at the same boundary.
func (l RankLoop) Run() (last IterStats, halted bool, err error) {
	target := l.Cell.Cfg.Iterations
	l.sources, l.dests = l.peers()
	halted, err = l.exchange(false)
	for err == nil && !halted && l.Cell.Iteration() < target {
		if last, err = l.Cell.Iterate(); err != nil {
			break
		}
		l.inst.observeIter(l.Cell.Rank, last)
		if l.Progress != nil {
			l.Progress(l.Cell.Rank, last)
		}
		if halted, err = l.exchange(false); err == nil {
			// The vote allgather in there is a barrier: every rank is at
			// this iteration, so the deposits assemble a consistent
			// snapshot.
			err = l.coll.deposit(l.Cell)
		}
	}
	if err != nil && !halted && l.Cell.Iteration() < target {
		l.exchange(true) //nolint:errcheck // err already holds the root cause
	}
	return last, halted, err
}

// peers returns the ranks this cell receives centers from and the ranks it
// sends its own to: its neighbourhood and its influence set, each without
// the cell itself.
func (l *RankLoop) peers() (sources, dests []int) {
	self := func(r int) bool { return r == l.Cell.Rank }
	return slices.DeleteFunc(l.Cell.Neighborhood(), self),
		slices.DeleteFunc(l.Cell.grid.Influence(l.Cell.Rank), self)
}

// exchange is one round of two collectives, performed unconditionally and
// in this order on every rank. First an allgather of a one-byte halt vote:
// every rank sees the same vote set, so all ranks agree on whether this
// round is the last — no rank can block on a barrier a stopped peer never
// reaches — and being a barrier it is also the consistent cut periodic
// checkpoints are taken at. Then the centers travel point to point: this
// cell's to the ranks it influences, its neighbourhood's to it, so a rank
// receives |neighbourhood| states per round however large the grid.
// leaving forces this rank's vote. A failed collective reports halt: the
// communicator is gone and no collective can follow it.
func (l *RankLoop) exchange(leaving bool) (halt bool, err error) {
	l.wire = l.Cell.AppendState(l.wire[:0])
	vote := []byte{0}
	if leaving || (l.Stop != nil && l.Stop()) {
		vote[0] = 1
	}
	t0 := time.Now()
	votes, err := l.Comm.Allgather(vote)
	var parts [][]byte
	if err == nil {
		parts, err = l.Comm.NeighborAllgather(l.sources, l.dests, l.wire)
	}
	l.inst.observeExchange(time.Since(t0))
	l.Cell.prof.Since(telemetry.RoutineGather, t0)
	if err != nil {
		return true, err
	}
	// Votes first: a rank that then fails to decode still knows whether
	// its peers go on to another exchange.
	for _, v := range votes {
		if len(v) != 1 {
			return true, fmt.Errorf("core: malformed halt vote")
		}
		halt = halt || v[0] != 0
	}
	states := make(map[int]*CellState, len(parts))
	for i, p := range parts {
		s, err := UnmarshalCellState(p)
		if err == nil && s.Rank != l.sources[i] {
			err = fmt.Errorf("core: rank %d sent the state of cell %d", l.sources[i], s.Rank)
		}
		if err != nil {
			return halt, err
		}
		states[s.Rank] = s
	}
	return halt, l.Cell.SetNeighbors(states)
}
