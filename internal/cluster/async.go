package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cellgan/internal/core"
	"cellgan/internal/mpi"
)

// This file is the asynchronous cluster exchange: the distributed form of
// core.RunAsync, under the same rules. Each slave trains its cells at its
// own pace and pushes their centers, in core.Exchange's push format,
// directly to the owners of each cell's influence set (tagAsyncState) —
// no rounds, no barrier, no master round-trip on the exchange path. One
// goroutine steps a core.Exchange per owned cell without blocking: it
// keeps, per source, the newest snapshot that fits the staleness window W
// and holds the ones too far ahead, installs, and lets the cell iterate
// only while no live neighbour's installed snapshot would end up more
// than W versions behind. W = 1 is lockstep, here as in core.
//
// The master's job shrinks to inventory and membership: it merges the
// slaves' periodic full-state uploads (so it always holds every cell's
// last state, exactly like resilient mode), decides when training is
// done, and runs the elastic join protocol — the inverse of resilient
// eviction. A connected-but-idle reserve slave asks to join (tagJoin);
// the master picks cells from the most loaded owners, recalls their
// state (tagRelease / tagReleaseAck), and grants them to the joiner with
// seed snapshots so it can start exchanging immediately (tagOwnerUpdate,
// also broadcast so every peer re-aims its pushes).

// asyncUploadEvery is how long an async slave stays idle before it
// re-pushes its cell states and re-uploads its inventory: once after a
// change (progress, or an owner update), and again every period while
// an owned cell is gated — the backstop for a lost push or upload. A
// slave whose cells are all finished or ungated stays quiet; a gate
// starved by later losses is also re-seeded by the master's stall nudge.
const asyncUploadEvery = 50 * time.Millisecond

// asyncIdleSleep is the execution-thread poll interval when no owned
// cell can make progress (all gated, finished, or none owned yet).
const asyncIdleSleep = time.Millisecond

// asyncMasterPoll is the master's poll interval between mailbox drains.
const asyncMasterPoll = 2 * time.Millisecond

// asyncMasterDrainMax caps how many state updates the master merges per
// poll pass. Merging is slower than four-plus slaves can upload, so an
// unbounded drain would starve the join queue and the done check until
// training ends.
const asyncMasterDrainMax = 32

// asyncClusterHooks observe the cluster exchange from tests. Set before
// a job starts and never mutated during one; nil fields are skipped.
var asyncClusterHooks struct {
	// onPush fires after cell's owner pushes its snapshot at iter.
	onPush func(cell, iter int)
	// onApply fires after a slave installs src's snapshot at iter in the
	// neighbour view of an owned cell at iteration at.
	onApply func(cell, src, iter, at int)
}

// runAsync is the execution thread of an async-mode slave: a single
// goroutine stepping every owned cell's exchange — settle, iterate when
// the gate is open, push — over one mailbox, growing and shrinking its
// owned set as owner updates and release orders arrive from the control
// loop.
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
	// push encodes cell r's center into a fresh buffer, keeping the push
	// before it, and hands it to the remote owners of its influence set and
	// to the co-owned cells it influences alike: a sent push is never
	// written again, only re-sent. Best-effort: the idle re-push heals a
	// lost push.
	push := func(r int) {
		oc := owned.cells[r]
		oc.prev, oc.wire = oc.wire, oc.x.AppendPush(nil)
		s.world.Multicast(remote(r), tagAsyncState, oc.wire) //nolint:errcheck
		for _, d := range owned.grid.Influence(r) {
			if nb := owned.cells[d]; nb != nil && d != r {
				nb.x.Receive(oc.wire) //nolint:errcheck // it decodes what AppendPush just encoded
			}
		}
		if h := asyncClusterHooks.onPush; h != nil {
			h(r, oc.cell.Iteration())
		}
	}
	// Announce every starting cell: a neighbour never heard from holds
	// the gate.
	for _, r := range owned.ranks() {
		push(r)
	}

	version := -1
	doneFlag, abortFlag := false, false
	lastChange, repush := time.Now(), false
	for pass := 0; ; pass++ {
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
						oc.x.Offer(st)
					}
				}
				if u.Done {
					doneFlag = true
					abortFlag = u.Abort
				}
				lastChange, repush = time.Now(), true // pushes may aim at new owners
			case r := <-s.releaseCh:
				// Return the released cells' state and stop training
				// them; the ack echoes the order's version in Round.
				ack, err := owned.packState(myRank, r.Version, r.Cells)
				if err != nil {
					return nil, err
				}
				for _, cr := range r.Cells {
					delete(owned.cells, cr)
				}
				payload, err := ack.marshal()
				if err != nil {
					return nil, err
				}
				if err := retrySend(s.world, 0, tagReleaseAck, payload, nil); err != nil {
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
				oc.x.Receive(m.Data) //nolint:errcheck // a corrupt push is dropped; peers re-push
			}
		}

		// (3) One step of every owned cell: settle its exchange, then
		// train one iteration if the cell still owes work and its gate is
		// open (failed neighbours never publish again and do not hold it).
		// Gated cells are skipped, never blocked on. Once training is done
		// the step only settles: the done update's seeds are every cell's
		// final state, so each final boundary settles here.
		progressed, gated := false, false
		for _, r := range owned.ranks() {
			oc := owned.cells[r]
			ready, err := oc.x.Settle(failedGlobal)
			if err != nil {
				return nil, err
			}
			if doneFlag || !owned.trainable(r) || oc.x.Halted() {
				continue
			}
			if !ready {
				gated = true
				continue
			}
			if !owned.iterate(r) {
				continue
			}
			progressed = true
			push(r)
		}
		if doneFlag {
			return owned.reports(abortFlag), nil
		}

		// (4) Inventory upload after progress. Once the slave has sat idle
		// for asyncUploadEvery, it re-pushes its owned states and
		// re-uploads its inventory — the liveness valve for a lost push or
		// upload: once after a change, and every period while a cell
		// stays gated. Otherwise it stays quiet until something changes.
		idle := !progressed && (repush || gated) && time.Since(lastChange) >= asyncUploadEvery
		if idle {
			for _, r := range owned.ranks() {
				// The push before too: a neighbour that lost it can be
				// gated on it while this cell's newer one is beyond its
				// window, and nothing else would ever resend it. A cell
				// adopted since has pushed nothing yet; the owner update
				// that granted it seeded its neighbours.
				oc, to := owned.cells[r], remote(r)
				for _, p := range [][]byte{oc.prev, oc.wire} {
					if len(p) > 0 {
						s.world.Multicast(to, tagAsyncState, p) //nolint:errcheck
					}
				}
				if h := asyncClusterHooks.onPush; h != nil && len(oc.wire) > 0 {
					h(r, oc.cell.Iteration())
				}
			}
		}
		if progressed || idle {
			payload, err := s.cacheUpdate(owned, pass+1, owned.ranks())
			if err != nil {
				return nil, err
			}
			s.world.Send(0, tagStateUpdate, payload) //nolint:errcheck
			lastChange, repush = time.Now(), progressed
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

// runAsync is the async middle: merge inventory uploads, serve joins and
// watch for completion, then tell everyone training is over.
func (m *master) runAsync() (resend func(s int), err error) {
	comm, opts, track, nCells := m.comm, m.opts, m.track, m.nCells
	target := opts.Cfg.Iterations
	if opts.Resume != nil {
		m.logf("master: resumed %d cells (iterations %v)", nCells, m.trackIters())
	}
	ck := newMasterCkpt(opts, false, m.logf)

	// encodeOU builds and encodes the current owner update. It carries every
	// cell's seed state, so each broadcast encodes it once for all its
	// destinations.
	version := 0
	encodeOU := func(done, abort bool, adopt []cellBlob) []byte {
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
		if err := retrySend(comm, dst, tagOwnerUpdate, payload, opts.Metrics.SendRetries); err != nil {
			m.logf("master: owner update to slave %d failed: %v", dst, err)
		}
	}

	// join runs the whole protocol for one reserve slave: deterministic
	// rebalance choice, release/ack recall of the moving cells' freshest
	// state, grant to the joiner, broadcast to peers.
	join := func(src int) {
		if src <= 0 || src > m.nSlaves || m.isLive(src) {
			return // duplicate request or nonsense rank
		}
		m.setLive(src, true)
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
			order := releaseOrder{Version: version, Cells: recall[o]}
			payload, merr := order.marshal()
			if merr != nil {
				continue
			}
			if err := retrySend(comm, o, tagRelease, payload, opts.Metrics.SendRetries); err != nil {
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
				m.merge(ack.Cells)
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
		m.sendTask(src, runTask{Cfg: opts.Cfg, CellRank: -1, Node: pl.Node, Core: pl.Core, Async: true, Joiner: true}) //nolint:errcheck // tolerant: failures are logged
		peers := encodeOU(false, false, nil)
		for _, dst := range m.liveRanks() {
			if dst == src {
				sendOU(dst, encodeOU(false, false, adopt))
			} else {
				sendOU(dst, peers)
			}
		}
	}

	// The poll loop: drain uploads and joins, watch for completion,
	// nudge on stalls.
	abort := false
	lastProgress := time.Now()
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
		// Uploads are cumulative inventories, so within one drain only the
		// newest message per source matters; decoding every queued backlog
		// entry would cost more wall-clock than a training iteration and
		// starve the join/done checks.
		drained := false
		latest := make(map[int][]byte)
		for n := 0; n < asyncMasterDrainMax; n++ {
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
		}
		var uploaders []int
		for src := range latest {
			uploaders = append(uploaders, src)
		}
		sort.Ints(uploaders)
		for _, src := range uploaders {
			upd, perr := parseStateUpdate(latest[src])
			if perr != nil {
				m.logf("master: bad state update from slave %d: %v", src, perr)
				continue
			}
			if m.merge(upd.Cells) {
				lastProgress = time.Now()
			}
		}
		// Best-effort newest-wins snapshot whenever the slowest cell has
		// crossed a full cadence; the merge's monotonicity keeps per-cell
		// iterations monotonic across successive snapshots.
		ck.observe(track)

		var done bool
		if done, abort = m.finished(); done {
			if abort {
				m.res.Aborted = true
				m.logf("master: %s, finishing with abort", m.abortReason())
			}
			break
		}

		// Stall nudge: re-request inventories and re-send a fresh owner
		// update with seed states — either heals a gate starved by lost
		// pushes or a master view starved by lost uploads.
		if time.Since(lastProgress) >= opts.RoundTimeout {
			m.logf("master: no progress for %s, nudging %d slaves", opts.RoundTimeout, len(m.liveRanks()))
			version++
			nudge := encodeOU(false, false, nil)
			for _, s := range m.liveRanks() {
				comm.Send(s, tagStateResend, nil) //nolint:errcheck
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
	doneOU := encodeOU(true, abort, nil)
	for _, s := range m.liveRanks() {
		sendOU(s, doneOU)
	}
	return func(s int) { sendOU(s, doneOU) }, nil
}
