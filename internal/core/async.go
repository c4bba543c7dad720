package core

import (
	"fmt"
	"slices"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// asyncStateTag carries center snapshots between cells in the
// asynchronous mode.
const asyncStateTag = 17

// asyncGatePoll is how long a staleness-gated cell sleeps between mailbox
// drains while waiting for a fresher neighbour snapshot.
const asyncGatePoll = 200 * time.Microsecond

// asyncTestHooks observe the asynchronous exchange from tests (the
// staleness-bound property test and the absorb-reordering regression
// test). All callbacks may be invoked concurrently from per-rank
// goroutines; nil callbacks are skipped.
type asyncTestHooks struct {
	// onPush fires after rank src sends its snapshot at iteration iter to
	// its influence set.
	onPush func(src, iter int)
	// onDrain fires when rank dst's absorb has emptied its mailbox, before
	// it applies what it drained.
	onDrain func(dst int)
	// onApply fires after rank dst applies src's snapshot at iteration
	// iter to its neighbour view.
	onApply func(dst, src, iter int)
}

// RunAsync trains the grid with fully asynchronous cells, the execution
// style §II-B describes: each cell iterates at its own pace, pushes its
// updated center to the cells whose neighbourhoods contain it (its
// influence set), and before each iteration absorbs whatever neighbour
// updates have arrived — no barrier, no collective. Fast cells are never
// held back by slow ones, except by the bounded-staleness window
// (Cfg.AsyncStaleness): a cell blocks before an iteration that would
// leave it more than S versions ahead of a neighbour's last absorbed
// snapshot, which caps divergence without reintroducing a barrier. The
// mode remains run-to-run nondeterministic (neighbour staleness depends
// on scheduling).
func RunAsync(cfg config.Config, opts RunOptions) (*Result, error) {
	// Async snapshots may mix iterations, so each cell resumes from its
	// own recorded position; a cell already at the target just serves
	// its state to neighbours and runs zero iterations.
	r, err := newRun(cfg, opts, false)
	if err != nil {
		return nil, err
	}
	board := newAsyncCkptBoard(opts, r.grid.Size())
	return r.overWorld(func(comm *mpi.Comm, cell *Cell) (IterStats, error) {
		return r.asyncCellLoop(comm, cell, board)
	})
}

// asyncCellLoop is one rank's life in the asynchronous mode.
func (r *runCtx) asyncCellLoop(comm *mpi.Comm, cell *Cell, board *asyncCkptBoard) (last IterStats, err error) {
	rank, g, prof, inst := cell.Rank, r.grid, r.opts.Prof, r.inst
	if r.opts.commWrap != nil {
		comm = r.opts.commWrap(rank, comm)
	}
	hooks := r.opts.asyncHooks
	view := NewNeighborView(cell, r.cfg.EffectiveAsyncStaleness())

	// push sends this cell's current center to every cell whose
	// neighbourhood includes it (grid.Influence); the messages are
	// buffered, so no receiver needs to be ready. wire is the encode
	// buffer every push reuses.
	dests := slices.DeleteFunc(g.Influence(rank), func(d int) bool { return d == rank })
	var wire []byte
	push := func() error {
		t0 := time.Now()
		defer prof.Since(telemetry.RoutineGather, t0)
		defer func() { inst.observeExchange(time.Since(t0)) }()
		wire = cell.AppendState(wire[:0])
		if err := comm.Multicast(dests, asyncStateTag, wire); err != nil {
			return err
		}
		if hooks != nil && hooks.onPush != nil {
			hooks.onPush(rank, cell.Iteration())
		}
		return nil
	}

	// absorb drains every pending neighbour update and applies, per
	// source, the newest snapshot of the drain — but only when it is at
	// least as new as everything already applied from that source. The
	// cross-drain check is the view's: the drain-local map alone cannot
	// stop a delayed or duplicated snapshot that arrives drains after a
	// newer one was applied from regressing the neighbour view.
	absorb := func() error {
		defer prof.Since(telemetry.RoutineGather, time.Now())
		var latest LatestStates
		for {
			m, ok, err := comm.TryRecv(mpi.AnySource, asyncStateTag)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			s, err := UnmarshalCellState(m.Data)
			if err != nil {
				return err
			}
			latest.Keep(s)
		}
		if hooks != nil && hooks.onDrain != nil {
			hooks.onDrain(rank)
		}
		for _, src := range latest.Ranks() {
			s := latest[src]
			applied, err := view.Apply(s)
			if err != nil {
				return err
			}
			if !applied {
				continue
			}
			inst.observeStaleness(cell.Iteration() - s.Iteration)
			if hooks != nil && hooks.onApply != nil {
				hooks.onApply(rank, s.Rank, s.Iteration)
			}
		}
		return nil
	}

	if err := push(); err != nil {
		return last, err
	}
	// The loop is driven by the cell's own iteration counter (not a
	// fresh 0-based index) so a cell restored from a checkpoint runs
	// exactly the iterations it still owes. No barrier in this mode, so
	// each rank honours the stop signal — the caller's, or a failed
	// peer's — independently at its own iteration boundary.
	for cell.Iteration() < r.cfg.Iterations && !r.stopping() {
		if err := absorb(); err != nil {
			return last, err
		}
		// Bounded-staleness gate: wait, still draining the mailbox, while
		// completing this iteration would leave the cell more than S
		// versions ahead of a neighbour's last absorbed snapshot. The
		// least-advanced cell never satisfies the stale predicate, so the
		// grid as a whole always makes progress.
		for view.Gated(nil) {
			if r.stopping() {
				return last, nil
			}
			inst.observeStaleWait()
			time.Sleep(asyncGatePoll)
			if err := absorb(); err != nil {
				return last, err
			}
		}
		if last, err = cell.Iterate(); err != nil {
			return last, err
		}
		inst.observeIter(rank, last)
		if r.opts.Progress != nil {
			r.opts.Progress(rank, last)
		}
		if err := push(); err != nil {
			return last, err
		}
		if err := board.deposit(cell); err != nil {
			return last, err
		}
	}
	return last, nil
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
