package core

import (
	"slices"
	"sort"
)

// StalenessTracker enforces the bounded-staleness discipline of the
// exchange loops. It remembers, per source rank, the iteration of the
// newest snapshot ever applied from that source — state that must outlive
// any single mailbox drain, because a delayed or duplicated delivery can
// surface an old snapshot arbitrarily many drains after a newer one was
// applied. ShouldApply is the newest-wins guard;
// Stale is the SSP-style gate: a cell blocks before an iteration only
// when completing it would leave the cell more than Bound versions ahead
// of some neighbour's last applied snapshot, never on a global barrier.
//
// The tracker is confined to one cell's exchange loop and is not safe for
// concurrent use.
type StalenessTracker struct {
	bound   int
	applied map[int]int
}

// NewStalenessTracker returns a tracker with the given staleness window;
// bounds below 1 are raised to 1 (a zero window would gate a fresh grid
// where every neighbour is still at iteration 0).
func NewStalenessTracker(bound int) *StalenessTracker {
	if bound < 1 {
		bound = 1
	}
	return &StalenessTracker{bound: bound, applied: make(map[int]int)}
}

// Bound returns the staleness window S.
func (t *StalenessTracker) Bound() int { return t.bound }

// ShouldApply reports whether a snapshot from src at iteration iter is at
// least as new as everything already applied from src. Equal iterations
// pass: training is deterministic per iteration, so re-applying a
// duplicate of the current snapshot is harmless, while anything older
// would regress the neighbour view.
func (t *StalenessTracker) ShouldApply(src, iter int) bool {
	prev, seen := t.applied[src]
	return !seen || iter >= prev
}

// MarkApplied records that src's snapshot at iter was applied. The record
// is monotonic: an out-of-order call can never lower it.
func (t *StalenessTracker) MarkApplied(src, iter int) {
	if prev, seen := t.applied[src]; seen && prev > iter {
		return
	}
	t.applied[src] = iter
}

// AppliedIteration returns the newest iteration applied from src, or 0
// when nothing has been applied yet (every cell starts at iteration 0, so
// an unseen neighbour is indistinguishable from a fresh one).
func (t *StalenessTracker) AppliedIteration(src int) int { return t.applied[src] }

// Stale returns, in ascending order, the neighbours whose last applied
// snapshot would be more than Bound versions behind after this cell
// completes iteration nextIter. An empty result means the cell may
// iterate without violating the staleness window.
func (t *StalenessTracker) Stale(nextIter int, neighbours []int) []int {
	var stale []int
	for _, n := range neighbours {
		if nextIter-t.applied[n] > t.bound {
			stale = append(stale, n)
		}
	}
	sort.Ints(stale)
	return stale
}

// LatestStates is one mailbox drain of an exchange loop: the newest
// snapshot per source rank, so a backlog queued during a stall never steps
// a neighbour view through superseded snapshots. The zero value is empty.
type LatestStates map[int]*CellState

// Keep records s unless the drain already holds a newer snapshot from
// its source.
func (l *LatestStates) Keep(s *CellState) {
	if *l == nil {
		*l = make(LatestStates)
	}
	if prev, ok := (*l)[s.Rank]; !ok || s.Iteration >= prev.Iteration {
		(*l)[s.Rank] = s
	}
}

// Ranks returns the drained sources in ascending order, the order a drain
// is applied in, so applies are deterministic for a given mailbox.
func (l LatestStates) Ranks() []int {
	var ranks []int
	for r := range l {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// NeighborView couples a cell with the staleness bookkeeping of its
// neighbour snapshots — the one place the exchange loops (RankLoop and
// the cluster's async slaves) decide whether an arriving snapshot is
// applied and whether the cell may take its next iteration.
type NeighborView struct {
	cell    *Cell
	tracker *StalenessTracker
	// nbrs is the grid neighbourhood minus the cell itself (a cell is
	// always current on its own state).
	nbrs []int
}

// NewNeighborView returns cell's view with staleness window bound.
func NewNeighborView(cell *Cell, bound int) *NeighborView {
	v := &NeighborView{cell: cell, tracker: NewStalenessTracker(bound)}
	for _, nb := range cell.Neighborhood() {
		if nb != cell.Rank {
			v.nbrs = append(v.nbrs, nb)
		}
	}
	return v
}

// Apply installs s in the cell's neighbour view when it comes from a
// neighbour and is at least as new as everything already applied from
// that source — newest wins, so a delayed or duplicated delivery never
// regresses the view — and refreshes the mixture. It reports whether s
// was applied.
func (v *NeighborView) Apply(s *CellState) (bool, error) {
	applied, err := v.install(s)
	if applied {
		err = v.cell.refreshMixture()
	}
	return applied, err
}

// install is Apply without the mixture refresh, for a caller that installs
// a whole drain and refreshes once.
func (v *NeighborView) install(s *CellState) (bool, error) {
	if !slices.Contains(v.nbrs, s.Rank) || !v.tracker.ShouldApply(s.Rank, s.Iteration) {
		return false, nil
	}
	if err := v.cell.neighbor(s.Rank, s); err != nil {
		return false, err
	}
	v.tracker.MarkApplied(s.Rank, s.Iteration)
	return true, nil
}

// Gated reports whether the cell must wait: completing its next iteration
// would leave it more than the window W ahead of some neighbour's last
// applied snapshot. A neighbour never heard from counts as one version
// before the start, so it holds the gate from the cell's iteration W−1 on
// — at W = 1 from the outset, which is what makes window 1 lockstep.
// Neighbours in exempt (cells that will never publish again) do not hold
// the gate; a nil map exempts none.
func (v *NeighborView) Gated(exempt map[int]bool) bool {
	next := v.cell.Iteration() + 1
	var gate []int
	for _, nb := range v.nbrs {
		if exempt[nb] {
			continue
		}
		if _, heard := v.tracker.applied[nb]; !heard && next >= v.tracker.bound {
			return true
		}
		gate = append(gate, nb)
	}
	return len(v.tracker.Stale(next, gate)) > 0
}
