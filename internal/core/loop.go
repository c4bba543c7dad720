package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// stateTag carries the in-process drivers' center pushes, in the push
// format of Exchange.
const stateTag = 17

const (
	// noHalt is the halt-at of a rank that has not been asked to stop.
	noHalt = math.MaxInt64
	// abortHalt is the halt-at a failing rank pushes: every rank that
	// sees it stops at its next boundary and forwards it. Any negative
	// halt-at is an abort, since no boundary is.
	abortHalt = -1
)

// Hooks observe a Driver from tests. Drivers on several goroutines may
// call them concurrently; nil callbacks are skipped.
type Hooks struct {
	// Pushed fires after cell's center of iteration iter went out, sent
	// or re-sent.
	Pushed func(cell, iter int)
	// Drained fires for every owned cell once a pass has drained the
	// mailbox, before any cell settles.
	Drained func(cell int)
	// Installed fires after cell, at iteration at, installs src's
	// snapshot of iteration iter in its neighbour view.
	Installed func(cell, src, iter, at int)
}

// Exchange is one cell's side of the cellular exchange, with no I/O: what
// a push carries, which received snapshots the cell installs, holds or
// drops, when it may iterate and where it halts — for a staleness window
// W, the number of iterations a cell may run ahead of the neighbour
// snapshots it trains against. W = 1 is lockstep: before iteration k+1
// the cell installs exactly every neighbour's center of iteration k,
// whatever order the pushes arrive in. A Driver steps one per owned cell,
// in every mode. The rules:
//   - Push: an 8-byte little-endian halt-at header, then the cell's
//     CellState framing with its parameter blobs in the push layout
//     (tensor.AppendAlignedMats); a header alone is the abort marker.
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
	// always current on its own state); installed is the newest snapshot
	// installed from each, which the cell's kept pair views.
	nbrs      []int
	installed map[int]pending
	inst      *runInstruments
	// latest is, per source, the newest kept snapshot that fits the
	// window; held, the newest one too far ahead to install yet.
	latest, held map[int]pending
	// halt is the minimum halt-at seen; settled is the last boundary whose
	// gate opened, -1 before the first.
	halt, settled int
}

// NewExchange returns cell's exchange with staleness window W = window;
// below 1 means 1.
func NewExchange(cell *Cell, window int) *Exchange {
	x := &Exchange{cell: cell, window: max(window, 1), installed: make(map[int]pending),
		latest: make(map[int]pending), held: make(map[int]pending), halt: noHalt, settled: -1}
	for _, nb := range cell.Neighborhood() {
		if nb != cell.Rank {
			x.nbrs = append(x.nbrs, nb)
		}
	}
	return x
}

// AppendPush appends the cell's push to dst: its halt-at header and its
// center, in the push layout: the body of every parameter matrix starts
// on a 64-byte boundary counted from the front of dst's buffer, so a
// receiver views the parameters in place, cache-line aligned when its
// buffer is.
func (x *Exchange) AppendPush(dst []byte) []byte {
	return x.cell.appendState(appendHalt(dst, x.halt), true)
}

// pending is a received snapshot with the release of the push it aliases.
type pending struct {
	s       *CellState
	release func()
}

// done calls the release, if any: the snapshot no longer reads its push.
func (k pending) done() {
	if k.release != nil {
		k.release()
	}
}

// Receive takes one decoded push, s nil for the abort marker: the cell
// adopts halt if it is lower and keeps s, whose parameters alias the push
// and must not change while s is kept or installed: an installed
// snapshot's parameters are the bytes the neighbour's kept pair views.
// release is called exactly when the exchange stops reading the push: once
// a newer snapshot from the same source has been installed in its place,
// or before s is ever installed, when it is superseded by a newer one,
// older than the installed version or from outside the neighbourhood, or
// at once for the abort marker. The Driver passes a release that frees the
// delivery after the last owned cell let go of it, so the sender may write
// its next push into the same bytes.
func (x *Exchange) Receive(halt int, s *CellState, release func()) {
	x.halt = min(x.halt, halt)
	if s == nil {
		pending{release: release}.done()
		return
	}
	x.offer(pending{s, release})
}

// Offer keeps snapshot s, a state in the file layout (CellState.Marshal),
// as Receive keeps a push's: its parameters are re-encoded once into the
// push layout, which the kept pair then views. Snapshots from outside the
// neighbourhood are dropped; one whose parameters do not parse is refused.
func (x *Exchange) Offer(s *CellState) error {
	if !x.keeps(s.Rank) {
		return nil
	}
	a, err := s.aligned(nil)
	if err == nil {
		x.offer(pending{s: a})
	}
	return err
}

func (x *Exchange) offer(k pending) {
	if !x.keeps(k.s.Rank) {
		k.done()
		return
	}
	x.promote(k.s.Rank)
	if x.fits(k.s) {
		keepNewest(x.latest, k)
	} else {
		keepNewest(x.held, k)
	}
}

// Settle installs what the cell kept — a held snapshot once the cell has
// caught up with it — releasing the snapshot each install supersedes, and
// reports whether the cell may stop waiting: its gate is open, neighbours
// in exempt (cells that will never publish again) not holding it, or it
// has seen an abort. The first time a boundary
// settles, the mixture is refreshed; a settled boundary stays settled.
func (x *Exchange) Settle(exempt map[int]bool) (bool, error) {
	for src := range x.held {
		x.promote(src)
	}
	for src, k := range x.latest {
		delete(x.latest, src)
		s := k.s
		prev, seen := x.installed[src]
		if seen && s.Iteration < prev.s.Iteration {
			k.done()
			continue
		}
		// A failed install may leave the generator viewing s already, so
		// s is not released; the error ends the cell's run.
		if err := x.cell.neighbor(src, s); err != nil {
			return false, err
		}
		prev.done()
		x.installed[src] = k
		x.inst.observeStaleness(x.cell.Iteration() - s.Iteration)
		if x.Installed != nil {
			x.Installed(src, s.Iteration)
		}
	}
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

// keeps reports whether the cell's neighbourhood holds src.
func (x *Exchange) keeps(src int) bool { return slices.Contains(x.nbrs, src) }

// release lets go of every push the exchange still reads: its cell is no
// longer stepped.
func (x *Exchange) release() {
	for _, m := range []map[int]pending{x.installed, x.latest, x.held} {
		for src, k := range m {
			k.done()
			delete(m, src)
		}
	}
}

// Halted reports whether the cell has reached its halt boundary or seen an
// abort, and so must not iterate again.
func (x *Exchange) Halted() bool { return x.cell.Iteration() >= x.halt }

// Stop asks the cell to halt W·D iterations from now, or earlier if it
// already learnt an earlier halt.
func (x *Exchange) Stop() {
	x.halt = min(x.halt, x.cell.Iteration()+x.window*x.cell.grid.Diameter())
}

// gated reports whether completing the next iteration would leave the cell
// more than W ahead of some non-exempt neighbour's installed snapshot.
func (x *Exchange) gated(exempt map[int]bool) bool {
	next := x.cell.Iteration() + 1
	for _, nb := range x.nbrs {
		it := -1
		if k, heard := x.installed[nb]; heard {
			it = k.s.Iteration
		}
		if !exempt[nb] && next-it > x.window {
			return true
		}
	}
	return false
}

// promote moves src's held snapshot to latest once it fits.
func (x *Exchange) promote(src int) {
	if h, ok := x.held[src]; ok && x.fits(h.s) {
		delete(x.held, src)
		keepNewest(x.latest, h)
	}
}

// fits reports whether s is at most W−1 versions ahead of the cell.
func (x *Exchange) fits(s *CellState) bool { return s.Iteration < x.cell.Iteration()+x.window }

// keepNewest files k under its source unless m holds a newer snapshot;
// the one not kept is done.
func keepNewest(m map[int]pending, k pending) {
	prev, ok := m[k.s.Rank]
	if ok && k.s.Iteration < prev.s.Iteration {
		k.done()
		return
	}
	prev.done()
	m[k.s.Rank] = k
}

// appendHalt appends the halt-at header h to dst.
func appendHalt(dst []byte, h int) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(h)) }

// decodePush parses a push into its halt-at and the snapshot behind it;
// the abort marker, a header alone, yields abortHalt and no snapshot. The
// snapshot aliases data, its parameter blobs in the push layout, which
// Cell.neighbor validates as it installs them.
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

// Driver is one execution thread's share of the cellular algorithm: the
// cells it owns, each with its own Exchange, trading centers with the
// owners of their neighbourhoods over Comm. A Pass drains the pushes that
// arrived and hands each to the owned cells it concerns; then, cell by
// cell in rank order, it settles, deposits the periodic checkpoint and —
// gate open, version out, work owed — iterates and pushes. RunParallel and
// RunAsync run one Driver per cell in-process, the plain cluster slave one
// on LOCAL, the tolerant cluster slave one over every cell it owns.
type Driver struct {
	Comm   *mpi.Comm
	Tag    int // carries the pushes
	Window int // every owned cell's staleness window W; below 1 means 1
	// Target is the iteration the cells train to: none iterates past it.
	Target int
	// Owners maps each grid cell to the Comm rank training it; nil maps
	// cell r to rank r. A push goes to the owners of its cell's influence
	// set, this rank included when it owns one.
	Owners []int
	// Exempt holds the cells that never publish again: they hold no gate.
	Exempt map[int]bool
	// Stop, when non-nil, is polled every pass; once any cell sees it
	// true, all halt within W·D iterations, at one boundary.
	Stop func() bool
	// Progress, when non-nil, is invoked after every iteration, before
	// the push that follows it.
	Progress func(rank int, stats IterStats)
	// Keep, when non-nil, is handed every push before it goes out, for a
	// caller that re-sends pushes (Resend) to hold on to.
	Keep  func(rank int, push []byte)
	Hooks *Hooks

	inst  *runInstruments
	coll  *CkptCollector
	owned []*Owned
	dests []int
	// mark is when the thread's last recorded routine ended: an Own, an
	// Iterate or a gather. A gather records the time since, so the
	// routines of a thread that steps several cells tile its time.
	mark time.Time
}

// Owned is a cell a Driver steps.
type Owned struct {
	Cell *Cell
	// Held is the newest version that may go out: the cell neither pushes
	// nor iterates past a newer one until Held reaches it.
	Held int
	// Err, once set, is why the cell failed; it is never iterated again.
	Err  error
	Last IterStats // the last iteration's statistics

	x      *Exchange
	infl   []int // the influence set minus the cell
	pushed int   // the last iteration pushed, -1 before the first
	halted bool  // Halted as the last pass saw it
}

// Halted reports whether the cell has reached its halt boundary or seen an
// abort.
func (o *Owned) Halted() bool { return o.x.Halted() }

// Own adds cell, with its own exchange; its current version goes out in
// the next pass.
func (d *Driver) Own(cell *Cell) *Owned {
	o := &Owned{Cell: cell, Held: math.MaxInt, x: NewExchange(cell, d.Window), pushed: -1}
	d.mark = time.Now()
	o.x.inst = d.inst
	o.infl = slices.DeleteFunc(cell.grid.Influence(cell.Rank), func(r int) bool { return r == cell.Rank })
	if h := d.Hooks; h != nil && h.Installed != nil {
		o.x.Installed = func(src, iter int) { h.Installed(cell.Rank, src, iter, cell.Iteration()) }
	}
	i, _ := slices.BinarySearchFunc(d.owned, cell.Rank, func(o *Owned, r int) int { return o.Cell.Rank - r })
	d.owned = slices.Insert(d.owned, i, o)
	return o
}

// Drop stops stepping cell rank, letting go of every push it still reads.
func (d *Driver) Drop(rank int) {
	if o := d.Lookup(rank); o != nil {
		o.x.release()
		d.owned = slices.DeleteFunc(d.owned, func(c *Owned) bool { return c == o })
	}
}

// Lookup returns owned cell rank, or nil.
func (d *Driver) Lookup(rank int) *Owned {
	if i := slices.IndexFunc(d.owned, func(o *Owned) bool { return o.Cell.Rank == rank }); i >= 0 {
		return d.owned[i]
	}
	return nil
}

// Cells returns the owned cells in rank order; the slice is the driver's.
func (d *Driver) Cells() []*Owned { return d.owned }

// Offer hands s, a snapshot in the file layout, to the owned cells as a
// push's would be.
func (d *Driver) Offer(s *CellState) {
	for _, o := range d.owned {
		o.x.Offer(s) //nolint:errcheck // a snapshot whose parameters do not parse is refused
	}
}

// Pass is one step of every owned cell. It reports whether a cell moved
// (iterated, failed or halted) and whether one waits on what other ranks
// send: gated while it owes work, or with a version that may not go out
// yet. It blocks on nothing.
func (d *Driver) Pass() (moved, waiting bool, err error) {
	for {
		m, ok, err := d.Comm.TryRecv(mpi.AnySource, d.Tag)
		if err != nil {
			return false, false, err
		}
		if !ok {
			break
		}
		if err := d.deliver(m); err != nil {
			return false, false, err
		}
	}
	if h := d.Hooks; h != nil && h.Drained != nil {
		for _, o := range d.owned {
			h.Drained(o.Cell.Rank)
		}
	}
	stop := d.Stop != nil && d.Stop()
	for _, o := range d.owned {
		m, w, err := d.step(o, stop)
		if err != nil {
			return false, false, err
		}
		moved, waiting = moved || m, waiting || w
	}
	return moved, waiting, nil
}

// step settles o's exchange and, if the cell may, iterates it and pushes
// the result.
func (d *Driver) step(o *Owned, stop bool) (moved, waiting bool, err error) {
	if err := d.publish(o); err != nil {
		return false, false, err
	}
	k := o.Cell.Iteration()
	first := o.x.settled != k
	ready, err := o.x.Settle(d.Exempt)
	if err != nil {
		return false, false, err
	}
	if stop {
		o.x.Stop()
	}
	if h := o.x.Halted(); h != o.halted {
		o.halted, moved = h, true
	}
	owes := o.Err == nil && k < d.Target && !o.halted
	if !ready {
		d.inst.observeStaleWait()
		return moved, owes || o.pushed < k, nil
	}
	if first {
		d.inst.observeExchange(time.Since(d.mark))
		o.Cell.prof.Since(telemetry.RoutineGather, d.mark)
		d.mark = time.Now()
		// Every cell passes every boundary below its halt, so the deposits
		// of one iteration assemble a consistent cut.
		if o.x.halt >= 0 {
			if err := d.coll.Deposit(o.Cell.Rank, k, o.Cell.FullState); err != nil {
				return false, false, err
			}
		}
	}
	if !owes || o.pushed < k {
		return moved, o.pushed < k, nil
	}
	o.Last, o.Err = o.Cell.Iterate()
	d.mark = time.Now()
	if o.Err != nil {
		return true, false, nil
	}
	d.inst.observeIter(o.Cell.Rank, o.Last)
	if d.Progress != nil {
		d.Progress(o.Cell.Rank, o.Last)
	}
	return true, o.Held <= k, d.publish(o)
}

// publish pushes o's current version to the owners of its influence set,
// unless it went out already or is newer than Held. The push is encoded
// into a buffer whose last push every receiver has released, or a fresh
// one while the earlier pushes are still out. A dead owner is skipped: a
// caller that tolerates one re-sends what it lost.
func (d *Driver) publish(o *Owned) error {
	k := o.Cell.Iteration()
	if o.pushed >= k || k > o.Held {
		return nil
	}
	o.pushed = k
	p := o.x.AppendPush(d.Comm.Reuse())
	if d.Keep != nil {
		d.Keep(o.Cell.Rank, p)
	}
	if err := d.Comm.Multicast(d.destinations(o), d.Tag, p); err != nil && !errors.Is(err, mpi.ErrPeerDead) {
		return err
	}
	if h := d.Hooks; h != nil && h.Pushed != nil {
		h.Pushed(o.Cell.Rank, k)
	}
	return nil
}

// Resend multicasts push, one Keep was handed for owned cell rank, to the
// current owners of the cell's influence set again, best-effort.
func (d *Driver) Resend(rank int, push []byte) {
	if o := d.Lookup(rank); o != nil {
		d.Comm.Multicast(d.destinations(o), d.Tag, push) //nolint:errcheck // a push lost again is re-sent again
		if _, s, err := decodePush(push); err == nil && s != nil && d.Hooks != nil && d.Hooks.Pushed != nil {
			d.Hooks.Pushed(rank, s.Iteration)
		}
	}
}

// destinations lists the distinct owners of o's influence set.
func (d *Driver) destinations(o *Owned) []int {
	d.dests = d.dests[:0]
	for _, c := range o.infl {
		if d.Owners != nil {
			c = d.Owners[c]
		}
		if !slices.Contains(d.dests, c) {
			d.dests = append(d.dests, c)
		}
	}
	return d.dests
}

// deliver decodes push m once and hands it to every owned cell whose
// neighbourhood holds its sender, the abort marker to every owned cell;
// the delivery is released when the last of them lets go of it.
func (d *Driver) deliver(m mpi.Message) error {
	halt, s, err := decodePush(m.Data)
	if err != nil {
		m.Release()
		return fmt.Errorf("core: push from rank %d: %w", m.Src, err)
	}
	readers := slices.DeleteFunc(slices.Clone(d.owned), func(o *Owned) bool { return s != nil && !o.x.keeps(s.Rank) })
	left := len(readers)
	release := func() {
		if left--; left <= 0 {
			m.Release()
		}
	}
	if left == 0 {
		release()
	}
	for _, o := range readers {
		o.x.Receive(halt, s, release)
	}
	return nil
}

// Run steps the owned cells until each has settled its last boundary or
// failed, blocking on the mailbox whenever a pass moved nothing, and
// returns a pass's error or else the first failed cell's. A run that fails
// or sees an abort pushes the abort marker, so no peer waits on it forever.
func (d *Driver) Run() (err error) {
	done := func(o *Owned) bool {
		k := o.Cell.Iteration()
		return o.Err != nil || o.x.settled == k && (k >= d.Target || o.x.Halted())
	}
	for moved := true; err == nil && slices.ContainsFunc(d.owned, func(o *Owned) bool { return !done(o) }); {
		if !moved {
			var m mpi.Message
			if m, err = d.Comm.Recv(mpi.AnySource, d.Tag); err == nil {
				err = d.deliver(m)
			}
		}
		if err == nil {
			moved, _, err = d.Pass()
		}
	}
	for _, o := range d.owned {
		err = cmp.Or(err, o.Err)
	}
	for _, o := range d.owned {
		if err != nil || o.x.halt < 0 {
			d.Comm.Multicast(d.destinations(o), d.Tag, appendHalt(nil, abortHalt)) //nolint:errcheck // err already holds the root cause
		}
	}
	return err
}
