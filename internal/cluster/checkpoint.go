package cluster

import (
	"fmt"
	"slices"

	"cellgan/internal/core"
)

// Master-side resume and periodic-checkpoint support. The master is the
// natural checkpoint agent for the tolerant modes: under the evict policy
// it merges every version of every cell in order (so it assembles
// consistent cuts), and in plain async mode it merges the slaves'
// inventory uploads monotonically (a best-effort newest-wins snapshot). Resume is
// the inverse: the master seeds its per-cell view from a prior run's
// states and dispatches each one with its run task, so a whole job
// restarts bit-exactly from the last durable generation.

// validateResume checks the Resume/CheckpointEvery options before any
// mode-specific master runs.
func validateResume(opts MasterOptions) error {
	if opts.CheckpointEvery < 0 {
		return fmt.Errorf("cluster: negative CheckpointEvery %d", opts.CheckpointEvery)
	}
	if opts.Resume == nil {
		return nil
	}
	n := opts.Cfg.NumCells()
	if len(opts.Resume) != n {
		return fmt.Errorf("cluster: resume carries %d cell states, config needs %d", len(opts.Resume), n)
	}
	first := 0
	uniform := true
	for c, f := range opts.Resume {
		if f == nil {
			return fmt.Errorf("cluster: resume state for cell %d is nil", c)
		}
		if f.Cell.Rank != c {
			return fmt.Errorf("cluster: resume state %d is for cell %d", c, f.Cell.Rank)
		}
		if f.Cell.Iteration > opts.Cfg.Iterations {
			return fmt.Errorf("cluster: resume state for cell %d is at iteration %d, past the %d-iteration target",
				c, f.Cell.Iteration, opts.Cfg.Iterations)
		}
		if c == 0 {
			first = f.Cell.Iteration
		} else if f.Cell.Iteration != first {
			uniform = false
		}
	}
	if !uniform && !opts.Async {
		return fmt.Errorf("cluster: resume states mix iterations; only mode \"async\" accepts that")
	}
	return nil
}

// masterCkpt emits periodic whole-job snapshots from the master's merged
// inventory. Under the evict policy, cuts deposits each cadence-boundary
// state as the master merges it and sinks a snapshot once every cell has
// deposited: the same consistent cut the in-process runners take. In
// plain async mode a snapshot fires whenever the slowest cell has crossed
// a full cadence since the last one; per-cell iterations across
// successive snapshots are monotonic because the master's merge is. Sink
// failures are logged, never fatal.
type masterCkpt struct {
	every    int
	sink     func(int, []*core.FullState) error
	logf     func(string, ...interface{})
	lastSunk int
	cuts     *core.CkptCollector
}

// newMasterCkpt returns nil when no cadence is configured, and in the
// plain mode, whose inventory merges no uploads. A resumed job starts its
// cadence after the resume point, never re-emitting the generation it was
// loaded from.
func newMasterCkpt(opts MasterOptions, logf func(string, ...interface{})) *masterCkpt {
	if opts.CheckpointEvery <= 0 || opts.CheckpointSink == nil || !opts.Async && !opts.Resilient {
		return nil
	}
	ck := &masterCkpt{every: opts.CheckpointEvery, logf: logf}
	ck.sink = func(iter int, states []*core.FullState) error {
		if err := opts.CheckpointSink(iter, states); err != nil {
			logf("master: checkpoint at iteration %d failed: %v", iter, err)
		}
		return nil // losing a snapshot must not stop the collector
	}
	if opts.Resilient {
		ck.cuts = core.NewCkptCollector(ck.every, ck.sink, opts.Resume, opts.Cfg.NumCells())
	}
	if opts.Resume != nil {
		ck.lastSunk = slices.MinFunc(opts.Resume, func(a, b *core.FullState) int { return a.Cell.Iteration - b.Cell.Iteration }).Cell.Iteration
	}
	return ck
}

// merged deposits cell c's newly merged state at iter into the evict
// policy's cuts. Safe on a nil receiver.
func (ck *masterCkpt) merged(c, iter int, full []byte) {
	if ck == nil || ck.cuts == nil {
		return
	}
	if err := ck.cuts.Deposit(c, iter, func() (*core.FullState, error) { return core.UnmarshalFullState(full) }); err != nil {
		ck.logf("master: checkpoint at iteration %d skipped: cell %d state undecodable: %v", iter, c, err)
	}
}

// observe emits the plain async policy's newest-wins snapshot when due.
// Decode failures skip the snapshot with a log line. Safe on a nil
// receiver.
func (ck *masterCkpt) observe(track []*cellTrack) {
	if ck == nil || ck.cuts != nil {
		return
	}
	min := -1
	for _, t := range track {
		if len(t.Full) == 0 {
			return // some cell's state was never gathered yet
		}
		if min < 0 || t.Iteration < min {
			min = t.Iteration
		}
	}
	if min <= 0 || min < ck.lastSunk+ck.every {
		return
	}
	states := make([]*core.FullState, len(track))
	for c, t := range track {
		f, err := core.UnmarshalFullState(t.Full)
		if err != nil {
			ck.logf("master: checkpoint at iteration %d skipped: cell %d state undecodable: %v", min, c, err)
			return
		}
		states[c] = f
	}
	ck.lastSunk = min
	ck.sink(min, states) //nolint:errcheck // the sink logs its own failure
}
