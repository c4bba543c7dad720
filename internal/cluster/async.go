package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"cellgan/internal/core"
	"cellgan/internal/mpi"
)

// This file is the tolerant cluster exchange — the one middle of the
// resilient and async modes, and the distributed form of core.RunAsync
// under the same rules. Each slave trains its cells at its own pace and
// pushes their centers, in core.Exchange's push format, directly to the
// owners of each cell's influence set (tagAsyncState); one goroutine steps
// a core.Exchange per owned cell without blocking. W = 1 is lockstep, here
// as in core: Resilient alone runs W = 1, Async sets W = Cfg.AsyncStaleness.
//
// The master's job shrinks to inventory and membership: it merges the
// slaves' full-state uploads from each cell's current owner, decides when
// training is done, and applies the membership policies (DESIGN §10).
//   - Elastic join: a reserve slave asks to join (tagJoin); the master
//     recalls cells from the most loaded owners (tagRelease /
//     tagReleaseAck) and grants them to the joiner with seed snapshots
//     (tagOwnerUpdate, also broadcast so every peer re-aims its pushes).
//   - Evict (Resilient): a cell's push of version k leaves only once the
//     master has acknowledged holding k (tagStateAck), so the master holds
//     every cell at a version no peer has consumed past. A slave silent
//     while others upload is struck, and after MaxStrikes strikes evicted:
//     its cells are re-dispatched from the held state, with seeds carrying
//     each lost cell's last two centers. Every peer of a cell re-dispatched
//     at k sits in [k−W, k+W], so it finds a version that fits its window
//     among those seeds and its own last two pushes, re-aimed by its idle
//     re-push.

// asyncUploadEvery is how long a tolerant slave stays idle before it
// re-pushes its cell states and re-uploads its inventory: once after a
// change (progress, or an owner update), and again every period while an
// owned cell is gated or waits for the master's ack — the backstop for a
// lost push, upload or ack, and under the evict policy the liveness
// signal the master strikes on. A slave whose cells are all finished or
// ungated stays quiet; a gate starved by later losses is also re-seeded
// by the master's stall nudge.
const asyncUploadEvery = 50 * time.Millisecond

// asyncIdleSleep is the execution-thread poll interval when no owned
// cell can make progress (all gated, finished, or none owned yet).
const asyncIdleSleep = time.Millisecond

// asyncMasterPoll is the master's poll interval between mailbox drains.
const asyncMasterPoll = 2 * time.Millisecond

// asyncClusterHooks observe the cluster exchange from tests. Set before
// a job starts and never mutated during one; nil fields are skipped.
var asyncClusterHooks struct {
	// onPush fires after cell's owner pushes its snapshot at iter.
	onPush func(cell, iter int)
	// onApply fires after a slave installs src's snapshot at iter in the
	// neighbour view of an owned cell at iteration at.
	onApply func(cell, src, iter, at int)
	// onHold fires after the master merges an upload of cell from its
	// owner and holds the cell at iter.
	onHold func(cell, iter int)
}

// runAsync is the execution thread of a tolerant slave: a single
// goroutine stepping every owned cell's exchange — settle, iterate when
// the gate is open, push — over one mailbox, growing and shrinking its
// owned set as owner updates and release orders arrive from the control
// loop. Under the evict policy a cell's new version is uploaded and
// pushed only once the master acknowledges holding it; the cell does not
// iterate again before that push has gone. The master's abort is polled
// at every pass, as RankLoop polls Stop: every cell halts within W·D
// iterations, all at one boundary.
func (s *slave) runAsync(task runTask) ([]SlaveReport, error) {
	owned, err := newOwnedCells(task, &s.prof)
	if err != nil {
		return nil, err
	}
	myRank := s.world.Rank()
	nCells := task.Cfg.NumCells()
	failedGlobal := make(map[int]bool) // any cell marked failed by the master
	owners := make([]int, nCells)
	for c := range owners {
		owners[c] = c + 1 // the initial one-cell-per-slave assignment
	}
	errQuit := fmt.Errorf("cluster: slave %d control loop exited mid-run", myRank)

	// remote lists the distinct other owners of cell r's influence set.
	var dests []int
	remote := func(r int) []int {
		dests = dests[:0]
		for _, d := range owned.grid.Influence(r) {
			if o := owners[d]; o != 0 && o != myRank && !slices.Contains(dests, o) {
				dests = append(dests, o)
			}
		}
		return dests
	}
	// deliver hands cell r's push p to the remote owners of its influence
	// set and to the co-owned cells it influences alike. A dead owner is
	// skipped (mpi.ErrPeerDead): only the send that finds it dead waits
	// for the transport to give up, which the hardened transport does well
	// inside the master's eviction window, so this thread's uploads keep
	// the slave alive.
	deliver := func(r int, p []byte) {
		s.world.Multicast(remote(r), tagAsyncState, p) //nolint:errcheck // best-effort: the idle re-push heals a lost push
		for _, d := range owned.grid.Influence(r) {
			if nb := owned.cells[d]; nb != nil && d != r {
				nb.x.Receive(p, nil) //nolint:errcheck // it decodes what AppendPush encoded
			}
		}
	}
	// push encodes cell r's center into a fresh buffer, keeping the push
	// before it, and delivers it: a sent push is never written again, only
	// re-sent, so this driver neither reuses nor releases pushes.
	// Best-effort: the idle re-push heals a lost push.
	push := func(r int) {
		oc := owned.cells[r]
		oc.prev, oc.wire, oc.unacked = oc.wire, oc.x.AppendPush(nil), false
		deliver(r, oc.wire)
		if h := asyncClusterHooks.onPush; h != nil {
			h(r, oc.cell.Iteration())
		}
	}
	// publish readies cell r's current version: pushed at once, or under
	// the evict policy once the master acknowledges holding it.
	publish := func(r int) {
		if task.Resilient {
			owned.cells[r].unacked = true
		} else {
			push(r)
		}
	}
	// Announce every starting cell: a neighbour never heard from holds
	// the gate. The evict policy uploads them first.
	for _, r := range owned.ranks() {
		publish(r)
	}

	version := -1
	doneFlag, abortFlag := false, false
	// changed marks owned cells that differ from the last upload, re-sent
	// as is while they do not; evict-policy starting cells upload at once.
	lastChange, repush, changed := time.Now(), false, task.Resilient
	var upload []byte
	for {
		// (1) Control messages from the master, via the control loop.
		for ctl := true; ctl; {
			select {
			case u := <-s.ownerCh:
				if u.Version < version || len(u.Owners) != nCells {
					continue // stale resend or foreign-grid noise
				}
				version = u.Version
				copy(owners, u.Owners)
				for _, c := range u.Failed {
					failedGlobal[c] = true
				}
				for _, ad := range u.Adopt {
					if err := owned.adopt(ad); err != nil {
						return nil, err
					}
				}
				// The catch-all for a release lost mid-flight: ownership
				// says the cell is elsewhere, so stop training it.
				for _, r := range owned.ranks() {
					if owners[r] != myRank {
						delete(owned.cells, r)
					}
				}
				// A seed is a snapshot like any push's.
				for i := range u.States {
					st, err := core.UnmarshalCellState(u.States[i].Data)
					if err != nil {
						continue // a seed is advisory, never fatal
					}
					for _, oc := range owned.cells {
						oc.x.Offer(st) //nolint:errcheck // a seed is advisory, never fatal
					}
				}
				if u.Done {
					doneFlag = true
					abortFlag = u.Abort
				}
				lastChange, repush, changed = time.Now(), true, true // pushes may aim at new owners
			case a := <-s.ackCh:
				for _, h := range a.Held {
					if oc := owned.cells[h.Cell]; oc != nil && oc.unacked && h.Iter >= oc.cell.Iteration() {
						push(h.Cell)
					}
				}
			case r := <-s.releaseCh:
				// Return the released cells' state and stop training
				// them; the ack echoes the order's version in Round.
				payload, err := owned.packState(r.Version, r.Cells)
				if err != nil {
					return nil, err
				}
				for _, cr := range r.Cells {
					delete(owned.cells, cr)
				}
				changed = true
				if err := s.world.Send(0, tagReleaseAck, payload); err != nil {
					return nil, err
				}
			case <-s.quit:
				return nil, errQuit
			default:
				ctl = false
			}
		}

		// (2) Peer pushes: every owned cell's exchange keeps what its
		// rules keep of each.
		for {
			m, ok, err := s.world.TryRecv(mpi.AnySource, tagAsyncState)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			for _, oc := range owned.cells {
				oc.x.Receive(m.Data, nil) //nolint:errcheck // a corrupt push is dropped; peers re-push
			}
		}

		// (3) One step of every owned cell: settle its exchange, then
		// train one iteration if the cell still owes work, its last version
		// has gone out and its gate is open (failed neighbours never
		// publish again and do not hold it). Gated cells are skipped, never
		// blocked on. Once training is done the step only settles: the done
		// update's seeds are every cell's final state, so each final
		// boundary settles here.
		stop := s.abort.Load()
		progressed, gated, waiting := false, false, false
		for _, r := range owned.ranks() {
			oc := owned.cells[r]
			ready, err := oc.x.Settle(failedGlobal)
			if err != nil {
				return nil, err
			}
			if stop {
				oc.x.Stop()
			}
			if h := oc.x.Halted(); h != oc.halted {
				oc.halted, changed = h, true // the master counts a halted cell as done
			}
			waiting = waiting || oc.unacked
			if doneFlag || oc.unacked || !owned.trainable(r) || oc.halted {
				continue
			}
			if !ready {
				gated = true
				continue
			}
			changed = true // trained, or marked failed
			if owned.iterate(r) {
				progressed = true
				publish(r)
			}
		}
		if doneFlag {
			return owned.reports(abortFlag), nil
		}

		// (4) Inventory upload after progress or a change. Once the slave
		// has sat idle for asyncUploadEvery, it re-pushes its owned states
		// and re-uploads its inventory — the liveness valve for a lost
		// push, upload or ack: once after a change (a re-push stays due
		// until an idle pass sends it), and every period while a cell stays
		// gated or unacknowledged. Otherwise it stays quiet. An upload is
		// never written once packed, so it is handed over, not copied.
		idle := !progressed && (repush || gated || waiting) && time.Since(lastChange) >= asyncUploadEvery
		if idle {
			for _, r := range owned.ranks() {
				// The push before too: a neighbour that lost it can be
				// gated on it while this cell's newer one is beyond its
				// window, and nothing else would ever resend it. Co-owned
				// cells get both again as well: one adopted since has seen
				// neither. A cell adopted since has pushed nothing yet; the
				// owner update that granted it seeded its neighbours.
				oc := owned.cells[r]
				for _, p := range [][]byte{oc.prev, oc.wire} {
					if len(p) > 0 {
						deliver(r, p)
					}
				}
				if h := asyncClusterHooks.onPush; h != nil && len(oc.wire) > 0 {
					it := oc.cell.Iteration()
					if oc.unacked {
						it-- // the cell has iterated past its last push
					}
					h(r, it)
				}
			}
		}
		if changed || idle {
			if changed || upload == nil {
				if upload, err = owned.packState(0, owned.ranks()); err != nil {
					return nil, err
				}
			}
			s.world.Multicast([]int{0}, tagStateUpdate, upload) //nolint:errcheck
			lastChange, repush, changed = time.Now(), progressed || repush && !idle, false
		}
		if !progressed {
			select {
			case <-s.quit:
				return nil, errQuit
			case <-time.After(asyncIdleSleep):
			}
		}
	}
}

// cellTrack is the master's view of one grid cell.
type cellTrack struct {
	owner int    // slave rank currently training the cell
	iter  int    // highest iteration merged
	full  []byte // marshalled core.FullState at iter
	prev  []byte // the full state merged before it, decoded only for seeds
	state []byte // marshalled core.CellState extracted from full, on demand
	// failed and halted cells owe no more iterations.
	failed, halted bool
	errNote        string
	fitness        float64
}

// exchangeState returns the cell's marshalled center snapshot, the part of
// full its neighbours need. Decoding a full state costs tens of
// milliseconds per cell, so merges only move the blob and the snapshot is
// derived on first use.
func (t *cellTrack) exchangeState() []byte {
	if t.state == nil {
		t.state, _ = centerOf(t.full)
	}
	return t.state
}

// centerOf extracts the marshalled center snapshot of a marshalled full
// state and its iteration; nil when there is none.
func centerOf(full []byte) ([]byte, int) {
	if len(full) == 0 {
		return nil, 0
	}
	f, err := core.UnmarshalFullState(full)
	if err != nil {
		return nil, 0
	}
	return f.Cell.Marshal(), f.Cell.Iteration
}

// unfinished reports whether the cell still owes iterations.
func (t *cellTrack) unfinished(target int) bool { return !t.failed && !t.halted && t.iter < target }

// initTrack starts the inventory with the one-cell-per-slave assignment,
// seeded from the resume states when the job is resuming, so eviction,
// owner updates, the done check and periodic snapshots all see the
// restored iterations before the first upload arrives.
func (m *master) initTrack() {
	m.track = make([]*cellTrack, m.nCells)
	for c := range m.track {
		m.track[c] = &cellTrack{owner: c + 1, fitness: inf()}
		if m.opts.Resume != nil {
			f := m.opts.Resume[c]
			m.track[c].iter, m.track[c].full, m.track[c].state = f.Cell.Iteration, f.Marshal(), f.Cell.Marshal()
		}
	}
	m.ck = newMasterCkpt(m.opts, m.logf)
}

// trackIters lists every cell's gathered iteration, for the event log.
func (m *master) trackIters() []int {
	its := make([]int, len(m.track))
	for c, t := range m.track {
		its[c] = t.iter
	}
	return its
}

// merge folds src's uploaded cell states into the inventory, only for the
// cells src currently owns, so an evicted zombie can neither advance a
// cell nor start a second history, and reports whether any cell advanced.
// Monotonic: training is deterministic, so for a given iteration count
// the state content is unique and duplicate or late uploads are harmless.
func (m *master) merge(src int, cells []cellBlob) (advanced bool) {
	for _, cb := range cells {
		if cb.CellRank < 0 || cb.CellRank >= m.nCells || m.track[cb.CellRank].owner != src {
			continue
		}
		t := m.track[cb.CellRank]
		if cb.Iteration > t.iter {
			advanced = true
			t.prev = t.full
			m.ck.merged(cb.CellRank, cb.Iteration, cb.Full)
		}
		if cb.Iteration >= t.iter {
			t.iter, t.full, t.state = cb.Iteration, cb.Full, nil
			t.failed, t.halted, t.errNote, t.fitness = cb.Failed, cb.Halted, cb.Error, cb.Fitness
		}
		if h := asyncClusterHooks.onHold; h != nil {
			h(cb.CellRank, t.iter)
		}
	}
	return advanced
}

// adoptOrder packs cell c's gathered state for its next owner.
func (m *master) adoptOrder(c int) cellBlob {
	t := m.track[c]
	return cellBlob{
		CellRank: c, Iteration: t.iter, Full: t.full,
		Failed: t.failed, Error: t.errNote, Fitness: t.fitness,
	}
}

// owned counts the cells slave s owns, and those it owes iterations.
func (m *master) owned(s int) (cells, unfinished int) {
	for _, t := range m.track {
		if t.owner == s {
			cells++
			if t.unfinished(m.opts.Cfg.Iterations) {
				unfinished++
			}
		}
	}
	return cells, unfinished
}

// finished reports whether training is over: every cell done, failed or
// halted at the abort's boundary.
func (m *master) finished() bool {
	for _, t := range m.track {
		if t.unfinished(m.opts.Cfg.Iterations) {
			return false
		}
	}
	return true
}

// runAsync is the tolerant middle: merge inventory uploads (acknowledging
// them and striking silent slaves under the evict policy), serve joins,
// relay an abort, and watch for completion, then tell everyone training is
// over.
func (m *master) runAsync() (resend func(s int), err error) {
	comm, opts, track, nCells := m.comm, m.opts, m.track, m.nCells
	target := opts.Cfg.Iterations
	if opts.Resume != nil {
		m.logf("master: resumed %d cells (iterations %v)", nCells, m.trackIters())
	}

	// encodeOU builds and encodes the current owner update. It carries every
	// cell's seed state, plus the one before it for each cell in moved, so
	// each broadcast encodes it once for all its destinations.
	version := 0
	encodeOU := func(done, abort bool, adopt []cellBlob, moved []int) []byte {
		u := ownerUpdate{Version: version, Owners: make([]int, nCells), Adopt: adopt, Done: done, Abort: abort}
		for c, t := range track {
			u.Owners[c] = t.owner
			if t.failed {
				u.Failed = append(u.Failed, c)
			}
			if st := t.exchangeState(); st != nil {
				u.States = append(u.States, wireState{Rank: c, Iter: t.iter, Data: st})
			}
		}
		for _, c := range moved {
			if st, it := centerOf(track[c].prev); st != nil {
				u.States = append(u.States, wireState{Rank: c, Iter: it, Data: st})
			}
		}
		payload, err := u.marshal()
		if err != nil {
			m.logf("master: encoding owner update: %v", err)
		}
		return payload
	}
	sendOU := func(dst int, payload []byte) {
		if payload == nil {
			return
		}
		if err := comm.Send(dst, tagOwnerUpdate, payload); err != nil {
			m.logf("master: owner update to slave %d failed: %v", dst, err)
		}
	}
	// grant announces a membership change: each adopter gets its adoption
	// orders, every live slave the new aim map and the moved cells' seeds.
	grant := func(adopt map[int][]cellBlob, moved []int) {
		version++
		peers := encodeOU(false, false, nil, moved)
		for _, dst := range m.liveRanks() {
			if a := adopt[dst]; a != nil {
				sendOU(dst, encodeOU(false, false, a, moved))
			} else {
				sendOU(dst, peers)
			}
		}
	}

	aborted := false

	// join runs the whole protocol for one reserve slave: deterministic
	// rebalance choice, release/ack recall of the moving cells' freshest
	// state, grant to the joiner, broadcast to peers.
	heard := make(map[int]time.Time) // evict policy: each live slave's last upload
	join := func(src int) {
		if src <= 0 || src > m.nSlaves || m.isLive(src) {
			return // duplicate request or nonsense rank
		}
		m.setLive(src, true)
		heard[src] = time.Now()
		opts.Metrics.Joins.Inc()
		m.logf("master: slave %d (%s) joining, rebalancing %d cells over %d slaves (iterations %v)",
			src, m.names[src], nCells, len(m.liveRanks()), m.trackIters())

		// Pick the cells to move: repeatedly take the highest-rank
		// unfinished cell from the most loaded owner (ties: lowest owner
		// rank) while that owner still has strictly more unfinished
		// cells than the joiner would. Deterministic, and it converges
		// to the fair share.
		load := make(map[int]int)
		for _, t := range track {
			if t.unfinished(target) {
				load[t.owner]++
			}
		}
		var moved []int
		for {
			// liveRanks is sorted, so with a strict > the first owner
			// carrying the maximum load wins — lowest rank breaks ties.
			heavy, max := 0, len(moved)
			for _, o := range m.liveRanks() {
				if o != src && load[o] > max {
					heavy, max = o, load[o]
				}
			}
			if heavy == 0 {
				break
			}
			pick := -1
			for c := nCells - 1; c >= 0; c-- {
				if t := track[c]; t.owner == heavy && t.unfinished(target) {
					pick = c
					break
				}
			}
			if pick < 0 {
				break
			}
			moved = append(moved, pick)
			load[heavy]--
		}
		sort.Ints(moved)
		if len(moved) == 0 {
			m.logf("master: no movable cells for joiner %d, granting empty membership", src)
		}

		// Recall the moving cells' freshest state from their owners.
		version++
		recall := make(map[int][]int) // old owner → cells
		for _, c := range moved {
			recall[track[c].owner] = append(recall[track[c].owner], c)
		}
		var owners []int
		for o := range recall {
			owners = append(owners, o)
		}
		sort.Ints(owners)
		for _, o := range owners {
			payload, _ := releaseOrder{Version: version, Cells: recall[o]}.marshal() // ints always encode
			if err := comm.Send(o, tagRelease, payload); err != nil {
				m.logf("master: release order to slave %d failed: %v", o, err)
				continue
			}
			// The ack echoes the order's version; acks from older joins
			// are merged (harmless, monotonic) and skipped.
			deadline := time.Now().Add(opts.RoundTimeout)
			for {
				left := time.Until(deadline)
				if left <= 0 {
					m.logf("master: slave %d never acked release of cells %v; granting from last gathered state", o, recall[o])
					break
				}
				msg, err := comm.RecvTimeout(o, tagReleaseAck, left)
				if err != nil {
					continue
				}
				ack, perr := parseStateUpdate(msg.Data)
				if perr != nil {
					m.logf("master: bad release ack from slave %d: %v", o, perr)
					break
				}
				m.merge(o, ack.Cells)
				if ack.Round == version {
					break
				}
			}
		}

		// Reassign and grant. The joiner gets the run task first (it
		// spawns the execution thread), then the adoption orders with
		// seed snapshots; everyone else learns the new aim map.
		var adopt []cellBlob
		for _, c := range moved {
			track[c].owner = src
			opts.Metrics.Rebalances.Inc()
			adopt = append(adopt, m.adoptOrder(c))
			m.logf("master: rebalanced cell %d to joiner %d (from iteration %d)", c, src, track[c].iter)
		}
		pl := m.res.Placements[src]
		task := runTask{Cfg: opts.Cfg, CellRank: -1, Node: pl.Node, Core: pl.Core, Async: true, Resilient: opts.Resilient, Joiner: true}
		m.sendTask(src, task) //nolint:errcheck // tolerant: failures are logged
		grant(map[int][]cellBlob{src: adopt}, moved)
	}

	// evict removes a silent slave and re-dispatches each of its cells to
	// the live slave owning the fewest cells (lowest rank breaks ties) — a
	// deterministic choice — from the state the master holds.
	evict := func(s int, why string) {
		m.setLive(s, false)
		opts.Metrics.Evictions.Inc()
		m.logf("master: evicting slave %d (%s)", s, why)
		comm.Send(s, tagShutdown, nil) //nolint:errcheck // best-effort zombie release
		adopt := make(map[int][]cellBlob)
		var moved []int
		for c, t := range track {
			if t.owner != s {
				continue
			}
			survivor, least := 0, 0
			for _, cand := range m.liveRanks() {
				if n, _ := m.owned(cand); survivor == 0 || n < least {
					survivor, least = cand, n
				}
			}
			if survivor == 0 {
				return // no survivors: the poll loop fails the job
			}
			t.owner = survivor
			opts.Metrics.Redispatches.Inc()
			adopt[survivor] = append(adopt[survivor], m.adoptOrder(c))
			moved = append(moved, c)
			m.logf("master: reassigned cell %d from slave %d to slave %d (re-dispatching from iteration %d)",
				c, s, survivor, t.iter)
		}
		grant(adopt, moved)
	}

	// The poll loop: drain joins and uploads, acknowledge and strike under
	// the evict policy, relay an abort, watch for completion, nudge on
	// stalls.
	strikes, decoded := make(map[int]int), make(map[int][]byte)
	lastUpload, lastProgress, lastAdvance := time.Now(), time.Now(), time.Now()
	for _, s := range m.liveRanks() {
		heard[s] = lastUpload
	}
	for {
		// Joins are drained first: a pending join must be served while its
		// cells are still mid-flight, not after a heavy merge backlog.
		for {
			msg, ok, err := comm.TryRecv(mpi.AnySource, tagJoin)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			join(msg.Src)
			lastProgress = time.Now()
		}
		// Uploads are cumulative inventories, so the drain empties the
		// mailbox but decodes only the newest message per source: a backlog
		// left behind would outgrow memory once re-uploads arrive faster
		// than the master decodes them.
		drained := false
		latest := make(map[int][]byte)
		for {
			msg, ok, err := comm.TryRecv(mpi.AnySource, tagStateUpdate)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			drained = true
			opts.Metrics.StateUpdates.Inc()
			latest[msg.Src] = msg.Data
			lastUpload, heard[msg.Src], strikes[msg.Src] = time.Now(), time.Now(), 0
		}
		var uploaders []int
		for src := range latest {
			uploaders = append(uploaders, src)
		}
		sort.Ints(uploaders)
		for _, src := range uploaders {
			// A re-sent upload is byte-identical to the last one decoded
			// from its slave: nothing to merge, only the ack to repeat.
			if !bytes.Equal(latest[src], decoded[src]) {
				upd, perr := parseStateUpdate(latest[src])
				if perr != nil {
					m.logf("master: bad state update from slave %d: %v", src, perr)
					continue
				}
				decoded[src] = latest[src]
				if m.merge(src, upd.Cells) {
					lastProgress, lastAdvance = time.Now(), time.Now()
				}
			}
			var ack stateAck // the version held of every cell src owns
			for c, t := range track {
				if t.owner == src {
					ack.Held = append(ack.Held, cellIter{Cell: c, Iter: t.iter})
				}
			}
			if opts.Resilient && len(ack.Held) > 0 {
				payload, _ := ack.marshal()          // int pairs always encode
				comm.Send(src, tagStateAck, payload) //nolint:errcheck // a lost ack is healed by the re-upload
			}
		}
		// Best-effort newest-wins snapshot whenever the slowest cell has
		// crossed a full cadence (plain async; the evict policy deposits
		// its cuts as it merges).
		m.ck.observe(track)

		// Strike the slaves that owe work but fell silent while another
		// slave's upload arrived — or, the fallback that fails a job whose
		// every slave died, while nobody uploaded for 4·MaxStrikes
		// timeouts. Uniform slowness never strikes anyone.
		for _, s := range m.liveRanks() {
			if !opts.Resilient || time.Since(heard[s]) < opts.RoundTimeout {
				continue
			}
			barren := time.Since(lastUpload) >= time.Duration(4*opts.MaxStrikes)*opts.RoundTimeout
			if _, owes := m.owned(s); owes == 0 || !(lastUpload.After(heard[s]) || barren) {
				continue
			}
			heard[s] = time.Now()
			if strikes[s]++; strikes[s] >= opts.MaxStrikes {
				evict(s, fmt.Sprintf("missed %d consecutive uploads", strikes[s]))
			}
		}
		if len(m.liveRanks()) == 0 {
			return nil, fmt.Errorf("cluster: all %d slaves lost, job cannot complete", m.nSlaves)
		}

		// A time limit or interrupt aborts: every cell halts within W·D
		// iterations, all at one boundary, and a halted cell is done.
		limit := opts.Cfg.TimeLimit
		if !aborted && (interrupted(opts.Interrupt) || (limit > 0 && time.Since(m.started) > limit)) {
			aborted, m.res.Aborted, lastAdvance = true, true, time.Now()
			m.logf("master: %s, sending abort to all slaves", m.abortReason())
			for _, s := range m.liveRanks() {
				comm.Send(s, tagAbort, nil) //nolint:errcheck // best-effort: a cell whose slave misses it, or a joiner's, learns the halt from its peers' pushes
			}
		}
		if m.finished() {
			break
		}
		// Without the evict policy nothing removes a dead slave, whose cells
		// hold their neighbours below the halt: an aborted job in which no cell
		// advanced for as long as eviction would take ends there.
		if aborted && !opts.Resilient && time.Since(lastAdvance) >= time.Duration(opts.MaxStrikes)*opts.RoundTimeout {
			m.logf("master: aborted and no cell advanced for %s, ending the job", time.Duration(opts.MaxStrikes)*opts.RoundTimeout)
			break
		}

		// Stall nudge: a fresh owner update with seed states heals a gate
		// starved by lost pushes, and the re-push and re-upload it prompts
		// heal a master view starved by lost uploads.
		if time.Since(lastProgress) >= opts.RoundTimeout {
			m.logf("master: no progress for %s, nudging %d slaves", opts.RoundTimeout, len(m.liveRanks()))
			version++
			nudge := encodeOU(false, false, nil, nil)
			for _, s := range m.liveRanks() {
				sendOU(s, nudge)
			}
			lastProgress = time.Now()
		}
		if !drained {
			time.Sleep(asyncMasterPoll)
		}
	}
	m.logf("master: training done, collecting results")

	// Tell everyone training is over; collection re-sends the signal to a
	// slave that answers "still finalising" (it may have been lost).
	version++
	doneOU := encodeOU(true, aborted, nil, nil)
	for _, s := range m.liveRanks() {
		sendOU(s, doneOU)
	}
	return func(s int) { sendOU(s, doneOU) }, nil
}
