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

// stateTag carries the rank loops' center pushes. Each message is an
// 8-byte little-endian halt-at header followed by the sender's CellState
// bytes; a header alone is the abort marker.
const stateTag = 17

const (
	// noHalt is the halt-at of a rank that has not been asked to stop.
	noHalt = math.MaxInt64
	// abortHalt is the halt-at a failing rank pushes: every rank that
	// sees it stops at its next boundary and forwards it.
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

// RankLoop is one rank's share of the cellular algorithm: train the cell
// and exchange centers with its grid neighbourhood, never running more
// than a staleness window W of iterations ahead of the neighbour
// snapshots it trains against. The cell's grid rank is its rank in Comm.
// W = 1 is lockstep: before iteration k+1 the cell installs exactly every
// neighbour's center of iteration k, whatever order the pushes arrive in.
// RunParallel (W = 1) and RunAsync (W = Cfg.AsyncStaleness) run one per
// goroutine over an in-process world; a plain cluster slave runs one on
// the LOCAL communicator (W = 1).
//
// One round is: push this cell's center to its influence set, drain
// neighbour pushes until the gate opens, deposit a periodic checkpoint,
// iterate. The rules that make one loop serve every window:
//   - Apply: per source, the newest snapshot at most W−1 versions ahead
//     of the cell is installed; a newer one is held for a later round.
//   - Gate: the cell may start iteration k+1 once every neighbour's
//     applied snapshot is at least k+1−W, a neighbour never heard from
//     counting as version −1 (so at W = 1 it blocks from the start).
//   - Stop: a rank whose Stop fires at boundary k halts at k+W·D (D the
//     influence diameter) and pushes that iteration in every header; each
//     rank keeps the minimum it has seen. A rank at influence distance d
//     learns it by boundary k+W·d, so every rank halts at one boundary.
//   - Abort: a failing rank pushes the abort marker; each rank that sees
//     it stops at its next boundary and forwards it.
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

	view *NeighborView
	// dests is the influence set minus the cell, the ranks every push
	// goes to; wire is the encode buffer every push reuses.
	dests []int
	wire  []byte
	// held is, per source, the newest snapshot too far ahead to apply.
	held map[int]*CellState
	// halt is the minimum halt-at seen; reach is W·D.
	halt, reach int
}

// Run trains the cell until it reaches its configured iteration count or
// the ranks halt, and returns the last iteration's statistics and whether
// the loop stopped short of the target. A rank that fails pushes the abort
// marker before returning its error, so no peer waits on it forever.
func (l RankLoop) Run() (last IterStats, halted bool, err error) {
	l.init()
	target := l.Cell.Cfg.Iterations
	for {
		if err = l.exchange(); err != nil || l.halt == abortHalt {
			break
		}
		// Every rank passes every boundary below its halt, so the
		// deposits of one iteration assemble a consistent cut.
		if err = l.coll.deposit(l.Cell); err != nil {
			break
		}
		k := l.Cell.Iteration()
		if l.Stop != nil && l.Stop() {
			l.halt = min(l.halt, k+l.reach)
		}
		if k >= target || k >= l.halt {
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
	if err != nil || l.halt == abortHalt {
		l.Comm.Multicast(l.dests, stateTag, appendHalt(nil, abortHalt)) //nolint:errcheck // err already holds the root cause
	}
	return last, l.Cell.Iteration() < target, err
}

// init derives the loop's peers and bookkeeping from its cell.
func (l *RankLoop) init() {
	l.window = max(l.window, 1)
	l.view = NewNeighborView(l.Cell, l.window)
	l.dests = slices.DeleteFunc(l.Cell.grid.Influence(l.Cell.Rank), func(r int) bool { return r == l.Cell.Rank })
	l.held = make(map[int]*CellState)
	l.halt, l.reach = noHalt, l.window*l.Cell.grid.Diameter()
}

// exchange is one round: push this cell's center, then drain neighbour
// pushes — blocking on the mailbox while the gate is shut — installing per
// source the newest snapshot that fits the window, and refresh the mixture
// once over everything installed. An abort marker ends the wait.
func (l *RankLoop) exchange() error {
	t0 := time.Now()
	defer func() {
		l.inst.observeExchange(time.Since(t0))
		l.Cell.prof.Since(telemetry.RoutineGather, t0)
	}()
	l.wire = l.Cell.AppendState(appendHalt(l.wire[:0], l.halt))
	if err := l.Comm.Multicast(l.dests, stateTag, l.wire); err != nil {
		return err
	}
	if l.hooks != nil && l.hooks.onPush != nil {
		l.hooks.onPush(l.Cell.Rank, l.Cell.Iteration())
	}
	var latest LatestStates
	for src, s := range l.held {
		if l.fits(s) {
			delete(l.held, src)
			latest.Keep(s)
		}
	}
	for wait := false; ; wait = true {
		if err := l.drain(wait, &latest); err != nil {
			return err
		}
		if l.hooks != nil && l.hooks.onDrain != nil {
			l.hooks.onDrain(l.Cell.Rank)
		}
		for _, src := range latest.Ranks() {
			s := latest[src]
			applied, err := l.view.install(s)
			if err != nil {
				return err
			}
			if applied {
				l.inst.observeStaleness(l.Cell.Iteration() - s.Iteration)
				if l.hooks != nil && l.hooks.onApply != nil {
					l.hooks.onApply(l.Cell.Rank, src, s.Iteration)
				}
			}
		}
		clear(latest)
		if l.halt == abortHalt || !l.view.Gated(nil) {
			return l.Cell.refreshMixture()
		}
		l.inst.observeStaleWait()
	}
}

// drain takes every queued push into latest or held, first blocking for
// one when wait is set.
func (l *RankLoop) drain(wait bool, latest *LatestStates) error {
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
		if len(m.Data) < 8 {
			return fmt.Errorf("core: %d-byte push from rank %d", len(m.Data), m.Src)
		}
		l.halt = min(l.halt, int(int64(binary.LittleEndian.Uint64(m.Data))))
		if len(m.Data) == 8 {
			continue // abort marker
		}
		s, err := UnmarshalCellState(m.Data[8:])
		if err != nil {
			return err
		}
		if l.fits(s) {
			latest.Keep(s)
		} else if h, ok := l.held[s.Rank]; !ok || s.Iteration > h.Iteration {
			l.held[s.Rank] = s
		}
	}
}

// appendHalt appends the halt-at header h to dst.
func appendHalt(dst []byte, h int) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(h)) }

// fits reports whether s is at most W−1 versions ahead of the cell.
func (l *RankLoop) fits(s *CellState) bool { return s.Iteration < l.Cell.Iteration()+l.window }
