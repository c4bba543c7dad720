package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// stateTag carries the rank loops' center pushes, in the push format of
// Exchange.
const stateTag = 17

const (
	// noHalt is the halt-at of a rank that has not been asked to stop.
	noHalt = math.MaxInt64
	// abortHalt is the halt-at a failing rank pushes: every rank that
	// sees it stops at its next boundary and forwards it. Any negative
	// halt-at is an abort, since no boundary is.
	abortHalt = -1
)

// loopTestHooks observe the rank loops from tests (the staleness-bound
// property test and the absorb-reordering regression test). Callbacks may
// be invoked concurrently from per-rank goroutines; nil callbacks are
// skipped.
type loopTestHooks struct {
	// onPush fires after rank src sends its snapshot at iteration iter to
	// its influence set.
	onPush func(src, iter int)
	// onDrain fires when rank dst has emptied its mailbox, before it
	// applies what it drained.
	onDrain func(dst int)
	// onApply fires after rank dst applies src's snapshot at iteration
	// iter to its neighbour view.
	onApply func(dst, src, iter int)
}

// Exchange is one cell's side of the cellular exchange, with no I/O: what
// a push carries, which received snapshots the cell installs, holds or
// drops, when it may iterate and where it halts — for a staleness window
// W, the number of iterations a cell may run ahead of the neighbour
// snapshots it trains against. W = 1 is lockstep: before iteration k+1
// the cell installs exactly every neighbour's center of iteration k,
// whatever order the pushes arrive in. RankLoop drives one Exchange per
// goroutine with blocking receives; the asynchronous cluster slave steps
// one per owned cell from a single goroutine. The rules:
//   - Push: an 8-byte little-endian halt-at header, then the cell's
//     CellState bytes; a header alone is the abort marker.
//   - Keep: per source, the newest received snapshot at most W−1 versions
//     ahead of the cell is installed at the next Settle; a newer one is
//     held until the cell catches up with it, so a version a neighbour
//     sent once is never lost to a newer one that arrived with it.
//   - Install: newest wins across drains, so a delayed or duplicated
//     snapshot never regresses the view.
//   - Gate: the cell may start iteration k+1 once every neighbour's
//     installed snapshot is at least k+1−W, a neighbour never heard from
//     counting as version −1 (so at W = 1 it blocks from the start).
//   - Refresh: the mixture is refreshed once per boundary, when the gate
//     opens, over everything installed by then.
//   - Stop: a cell asked to stop at boundary k halts at k+W·D (D the
//     influence diameter) and pushes that iteration in every header; each
//     cell keeps the minimum it has seen. A cell at influence distance d
//     learns it by boundary k+W·d, so every cell halts at one boundary.
//   - Abort: a cell that sees the abort marker stops at its next boundary,
//     gate or no gate, and pushes the marker on.
//
// An Exchange is confined to the goroutine that drives its cell.
type Exchange struct {
	// Installed, when non-nil, observes each snapshot Settle installs.
	Installed func(src, iter int)

	cell   *Cell
	window int
	// nbrs is the grid neighbourhood minus the cell itself (a cell is
	// always current on its own state); applied is the iteration of the
	// newest snapshot installed from each.
	nbrs    []int
	applied map[int]int
	inst    *runInstruments
	// latest is, per source, the newest kept snapshot that fits the
	// window; held, the newest one too far ahead to install yet.
	latest, held map[int]*CellState
	// halt is the minimum halt-at seen; settled is the last boundary whose
	// gate opened, -1 before the first.
	halt, settled int
}

// NewExchange returns cell's exchange with staleness window W = window;
// below 1 means 1.
func NewExchange(cell *Cell, window int) *Exchange {
	x := &Exchange{cell: cell, window: max(window, 1), applied: make(map[int]int),
		latest: make(map[int]*CellState), held: make(map[int]*CellState), halt: noHalt, settled: -1}
	for _, nb := range cell.Neighborhood() {
		if nb != cell.Rank {
			x.nbrs = append(x.nbrs, nb)
		}
	}
	return x
}

// AppendPush appends the cell's push to dst: its halt-at header and its
// center.
func (x *Exchange) AppendPush(dst []byte) []byte {
	return x.cell.AppendState(appendHalt(dst, x.halt))
}

// Receive takes one push: the cell adopts the header's halt-at if it is
// lower and keeps the snapshot behind it. data must not change until that
// snapshot is installed or superseded.
func (x *Exchange) Receive(data []byte) error {
	halt, s, err := decodePush(data)
	if err != nil {
		return err
	}
	x.halt = min(x.halt, halt)
	if s != nil {
		x.Offer(s)
	}
	return nil
}

// Offer keeps snapshot s, as Receive keeps a push's; snapshots from
// outside the neighbourhood are dropped.
func (x *Exchange) Offer(s *CellState) {
	if !slices.Contains(x.nbrs, s.Rank) {
		return
	}
	x.promote(s.Rank)
	if x.fits(s) {
		keepNewest(x.latest, s)
	} else {
		keepNewest(x.held, s)
	}
}

// Settle installs what the cell kept — a held snapshot once the cell has
// caught up with it — and reports whether the cell may stop waiting: its
// gate is open, neighbours in exempt (cells that will never publish again)
// not holding it, or it has seen an abort. The first time a boundary
// settles, the mixture is refreshed; a settled boundary stays settled.
func (x *Exchange) Settle(exempt map[int]bool) (bool, error) {
	for src := range x.held {
		x.promote(src)
	}
	for src, s := range x.latest {
		if prev, seen := x.applied[src]; seen && s.Iteration < prev {
			continue
		}
		if err := x.cell.neighbor(src, s); err != nil {
			return false, err
		}
		x.applied[src] = s.Iteration
		x.inst.observeStaleness(x.cell.Iteration() - s.Iteration)
		if x.Installed != nil {
			x.Installed(src, s.Iteration)
		}
	}
	clear(x.latest)
	k := x.cell.Iteration()
	if x.settled == k {
		return true, nil
	}
	if x.halt >= 0 && x.gated(exempt) {
		return false, nil
	}
	x.settled = k
	return true, x.cell.refreshMixture()
}

// Halted reports whether the cell has reached its halt boundary or seen an
// abort, and so must not iterate again.
func (x *Exchange) Halted() bool { return x.cell.Iteration() >= x.halt }

// stop asks the cell to halt W·D iterations from now, or earlier if it
// already learnt an earlier halt.
func (x *Exchange) stop() {
	x.halt = min(x.halt, x.cell.Iteration()+x.window*x.cell.grid.Diameter())
}

// gated reports whether completing the next iteration would leave the cell
// more than W ahead of some non-exempt neighbour's installed snapshot.
func (x *Exchange) gated(exempt map[int]bool) bool {
	next := x.cell.Iteration() + 1
	for _, nb := range x.nbrs {
		it, heard := x.applied[nb]
		if !heard {
			it = -1
		}
		if !exempt[nb] && next-it > x.window {
			return true
		}
	}
	return false
}

// promote moves src's held snapshot to latest once it fits.
func (x *Exchange) promote(src int) {
	if h, ok := x.held[src]; ok && x.fits(h) {
		delete(x.held, src)
		keepNewest(x.latest, h)
	}
}

// fits reports whether s is at most W−1 versions ahead of the cell.
func (x *Exchange) fits(s *CellState) bool { return s.Iteration < x.cell.Iteration()+x.window }

// keepNewest files s under its source unless m holds a newer snapshot.
func keepNewest(m map[int]*CellState, s *CellState) {
	if prev, ok := m[s.Rank]; !ok || s.Iteration >= prev.Iteration {
		m[s.Rank] = s
	}
}

// appendHalt appends the halt-at header h to dst.
func appendHalt(dst []byte, h int) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(h)) }

// decodePush parses a push into its halt-at and the snapshot behind it;
// the abort marker, a header alone, yields abortHalt and no snapshot. The
// snapshot aliases data.
func decodePush(data []byte) (halt int, s *CellState, err error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("core: %d-byte push", len(data))
	}
	if len(data) == 8 {
		return abortHalt, nil, nil
	}
	s, err = UnmarshalCellState(data[8:])
	return int(int64(binary.LittleEndian.Uint64(data))), s, err
}

// RankLoop is one rank's share of the cellular algorithm over an MPI
// communicator: train the cell and exchange centers with its grid
// neighbourhood by the rules of Exchange, blocking on the mailbox while
// the gate is shut. The cell's grid rank is its rank in Comm. RunParallel
// (W = 1) and RunAsync (W = Cfg.AsyncStaleness) run one per goroutine over
// an in-process world; a plain cluster slave runs one on the LOCAL
// communicator (W = 1).
//
// One round is: push this cell's center to its influence set, drain
// neighbour pushes until the gate opens, deposit a periodic checkpoint,
// iterate.
type RankLoop struct {
	Comm *mpi.Comm
	Cell *Cell
	// Stop, when non-nil, is polled at every iteration boundary; once any
	// rank sees it return true, all ranks halt within W·D iterations, at
	// the same boundary.
	Stop func() bool
	// Progress, when non-nil, is invoked after every iteration, before the
	// push that follows it.
	Progress func(rank int, stats IterStats)

	// window is the staleness window W; below 1 means 1.
	window int
	inst   *runInstruments
	coll   *ckptCollector
	hooks  *loopTestHooks

	x *Exchange
	// dests is the influence set minus the cell, the ranks every push
	// goes to; wire is the encode buffer every push reuses.
	dests []int
	wire  []byte
}

// Run trains the cell until it reaches its configured iteration count or
// the ranks halt, and returns the last iteration's statistics and whether
// the loop stopped short of the target. A rank that fails pushes the abort
// marker before returning its error, so no peer waits on it forever.
func (l RankLoop) Run() (last IterStats, halted bool, err error) {
	l.init()
	target := l.Cell.Cfg.Iterations
	for {
		if err = l.exchange(); err != nil || l.x.halt < 0 {
			break
		}
		// Every rank passes every boundary below its halt, so the
		// deposits of one iteration assemble a consistent cut.
		if err = l.coll.deposit(l.Cell); err != nil {
			break
		}
		if l.Stop != nil && l.Stop() {
			l.x.stop()
		}
		if l.Cell.Iteration() >= target || l.x.Halted() {
			break
		}
		if last, err = l.Cell.Iterate(); err != nil {
			break
		}
		l.inst.observeIter(l.Cell.Rank, last)
		if l.Progress != nil {
			l.Progress(l.Cell.Rank, last)
		}
	}
	if err != nil || l.x.halt < 0 {
		l.Comm.Multicast(l.dests, stateTag, appendHalt(nil, abortHalt)) //nolint:errcheck // err already holds the root cause
	}
	return last, l.Cell.Iteration() < target, err
}

// init derives the loop's exchange and peers from its cell.
func (l *RankLoop) init() {
	l.x = NewExchange(l.Cell, l.window)
	l.x.inst = l.inst
	if l.hooks != nil && l.hooks.onApply != nil {
		rank, onApply := l.Cell.Rank, l.hooks.onApply
		l.x.Installed = func(src, iter int) { onApply(rank, src, iter) }
	}
	l.dests = slices.DeleteFunc(l.Cell.grid.Influence(l.Cell.Rank), func(r int) bool { return r == l.Cell.Rank })
}

// exchange is one round: push this cell's center, then drain neighbour
// pushes — blocking on the mailbox while the gate is shut — until the
// exchange settles.
func (l *RankLoop) exchange() error {
	t0 := time.Now()
	defer func() {
		l.inst.observeExchange(time.Since(t0))
		l.Cell.prof.Since(telemetry.RoutineGather, t0)
	}()
	l.wire = l.x.AppendPush(l.wire[:0])
	if err := l.Comm.Multicast(l.dests, stateTag, l.wire); err != nil {
		return err
	}
	if l.hooks != nil && l.hooks.onPush != nil {
		l.hooks.onPush(l.Cell.Rank, l.Cell.Iteration())
	}
	for wait := false; ; wait = true {
		if err := l.drain(wait); err != nil {
			return err
		}
		if l.hooks != nil && l.hooks.onDrain != nil {
			l.hooks.onDrain(l.Cell.Rank)
		}
		if ready, err := l.x.Settle(nil); err != nil || ready {
			return err
		}
		l.inst.observeStaleWait()
	}
}

// drain hands every queued push to the exchange, first blocking for one
// when wait is set.
func (l *RankLoop) drain(wait bool) error {
	for {
		m, ok, err := l.Comm.TryRecv(mpi.AnySource, stateTag)
		if wait && err == nil && !ok {
			m, err = l.Comm.Recv(mpi.AnySource, stateTag)
			ok = err == nil
		}
		wait = false
		if err != nil || !ok {
			return err
		}
		if err := l.x.Receive(m.Data); err != nil {
			return fmt.Errorf("core: push from rank %d: %w", m.Src, err)
		}
	}
}
