package core

import (
	"math"
	"sync"
)

// ckptCollector is the periodic checkpoint capture of the in-process
// runners. Every cell of every mode passes every cadence boundary k, so a
// snapshot at k is assembled from each cell's FullState at its
// post-exchange boundary of k and handed to the sink only when all n cells
// have deposited — a consistent cut by construction, whatever the
// staleness window. Boundaries at or below floor, the lowest iteration
// the run resumed from, are skipped: a cut there could only be the
// resume set itself, already on disk.
type ckptCollector struct {
	every int
	sink  func(int, []*FullState) error
	n     int
	floor int

	mu      sync.Mutex
	pending map[int][]*FullState
	counts  map[int]int
	failed  error
}

// newCkptCollector returns nil when no cadence is configured.
func newCkptCollector(opts RunOptions, n int) *ckptCollector {
	if opts.CheckpointEvery <= 0 || opts.CheckpointSink == nil {
		return nil
	}
	floor := 0
	if len(opts.Resume) > 0 {
		floor = math.MaxInt
		for _, st := range opts.Resume {
			if st != nil {
				floor = min(floor, st.Cell.Iteration)
			}
		}
	}
	return &ckptCollector{
		floor:   floor,
		every:   opts.CheckpointEvery,
		sink:    opts.CheckpointSink,
		n:       n,
		pending: make(map[int][]*FullState),
		counts:  make(map[int]int),
	}
}

// deposit records cell's state if it sits on a cadence boundary; the
// depositing goroutine that completes a snapshot runs the sink. Safe on
// a nil collector.
func (c *ckptCollector) deposit(cell *Cell) error {
	if c == nil {
		return nil
	}
	iter := cell.Iteration()
	if iter <= c.floor || iter%c.every != 0 {
		return nil
	}
	full, err := cell.FullState()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		// A failed sink already doomed the run; don't assemble more.
		return c.failed
	}
	states := c.pending[iter]
	if states == nil {
		states = make([]*FullState, c.n)
		c.pending[iter] = states
	}
	if states[cell.Rank] == nil {
		c.counts[iter]++
	}
	states[cell.Rank] = full
	if c.counts[iter] < c.n {
		return nil
	}
	delete(c.pending, iter)
	delete(c.counts, iter)
	// The sink runs under the lock, which keeps sink calls in iteration
	// order: a cell deposits k before k+every, so snapshot k completes
	// first.
	if err := c.sink(iter, states); err != nil {
		c.failed = err
		return err
	}
	return nil
}
