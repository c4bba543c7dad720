package core

import (
	"math"
	"sync"
)

// CkptCollector assembles periodic checkpoints as consistent cuts. Every
// cell passes every cadence boundary k, so a snapshot at k is assembled
// from each cell's FullState at k and handed to the sink only when all n
// cells have deposited, whatever the staleness window. The in-process
// runners deposit each cell at its post-exchange boundary; the cluster
// master deposits each boundary state as it merges it. Boundaries at or
// below floor, the lowest iteration the run resumed from, are skipped: a
// cut there could only be the resume set itself, already on disk.
type CkptCollector struct {
	every int
	sink  func(int, []*FullState) error
	n     int
	floor int

	mu      sync.Mutex
	pending map[int][]*FullState
	counts  map[int]int
	failed  error
}

// NewCkptCollector returns the collector of n cells' cuts every every
// iterations for a run resumed from resume (nil for a fresh start), or nil
// when no cadence is configured.
func NewCkptCollector(every int, sink func(int, []*FullState) error, resume []*FullState, n int) *CkptCollector {
	if every <= 0 || sink == nil {
		return nil
	}
	floor := 0
	if len(resume) > 0 {
		floor = math.MaxInt
		for _, st := range resume {
			if st != nil {
				floor = min(floor, st.Cell.Iteration)
			}
		}
	}
	return &CkptCollector{
		floor:   floor,
		every:   every,
		sink:    sink,
		n:       n,
		pending: make(map[int][]*FullState),
		counts:  make(map[int]int),
	}
}

// Deposit records cell rank's state at iter if iter is a cadence
// boundary, calling full for it only then; the depositing goroutine that
// completes a snapshot runs the sink. Safe on a nil collector.
func (c *CkptCollector) Deposit(rank, iter int, full func() (*FullState, error)) error {
	if c == nil {
		return nil
	}
	if iter <= c.floor || iter%c.every != 0 {
		return nil
	}
	st, err := full()
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
	if states[rank] == nil {
		c.counts[iter]++
	}
	states[rank] = st
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
