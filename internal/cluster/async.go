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
// core.RunAsync. Each slave trains its cells at its own pace and pushes
// center snapshots directly to the owners of each cell's influence set
// (tagAsyncState) — no rounds, no barrier, no master round-trip on the
// exchange path. Divergence is capped by the same bounded-staleness
// window S the in-process mode uses: a cell skips its next iteration
// while some live neighbour's last absorbed snapshot would end up more
// than S versions behind, and a per-(cell, source) core.StalenessTracker
// guarantees a delayed or duplicated push can never regress a neighbour
// view.
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
	// onApply fires after a slave applies src's snapshot at iter to the
	// neighbour view of an owned cell.
	onApply func(cell, src, iter int)
}

// runAsync is the execution thread of an async-mode slave: a single
// goroutine multiplexing every owned cell through absorb → gate →
// iterate → push passes, growing and shrinking its owned set as owner
// updates and release orders arrive from the control loop.
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

	// applyState offers a snapshot to the neighbour view of every other
	// owned cell; each view applies it only if the source is a neighbour
	// and the snapshot is no older than what it already holds.
	applyState := func(st *core.CellState) error {
		for _, r := range owned.ranks() {
			if st.Rank == r {
				continue
			}
			applied, err := owned.cells[r].view.Apply(st)
			if err != nil {
				return err
			}
			if h := asyncClusterHooks.onApply; applied && h != nil {
				h(r, st.Rank, st.Iteration)
			}
		}
		return nil
	}

	// push sends one owned cell's snapshot to the distinct owners of its
	// influence set, one shared copy for all of them. Best-effort: a lost
	// push is healed by the idle re-push, and co-owned neighbours are
	// refreshed locally instead.
	var wire []byte
	var dests []int
	push := func(r int) error {
		wire = owned.cells[r].cell.AppendState(wire[:0])
		dests = dests[:0]
		for _, d := range owned.grid.Influence(r) {
			if o := owners[d]; o != 0 && o != myRank && !slices.Contains(dests, o) {
				dests = append(dests, o)
			}
		}
		s.world.Multicast(dests, tagAsyncState, wire) //nolint:errcheck
		st, err := core.UnmarshalCellState(wire)
		if err != nil {
			return err
		}
		if h := asyncClusterHooks.onPush; h != nil {
			h(r, st.Iteration)
		}
		return applyState(st) // co-owned neighbours see it immediately
	}
	// Announce every starting cell: a neighbour never heard from holds
	// the gate.
	for _, r := range owned.ranks() {
		if err := push(r); err != nil {
			return nil, err
		}
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
				for i := range u.States {
					st, err := core.UnmarshalCellState(u.States[i].Data)
					if err != nil {
						continue // a seed is advisory, never fatal
					}
					if err := applyState(st); err != nil {
						return nil, err
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

		// (2) Absorb peer pushes: only the newest snapshot per source cell
		// of the drain, so a backlog queued during a stall never steps a
		// neighbour view through snapshots more than S versions behind.
		var latest core.LatestStates
		for {
			m, ok, err := s.world.TryRecv(mpi.AnySource, tagAsyncState)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			st, err := core.UnmarshalCellState(m.Data)
			if err != nil {
				continue // corrupt push; peers re-push
			}
			latest.Keep(st)
		}
		for _, r := range latest.Ranks() {
			if err := applyState(latest[r]); err != nil {
				return nil, err
			}
		}

		if doneFlag {
			return owned.reports(abortFlag), nil
		}

		// (3) One training pass: iterate every owned cell that is
		// unfinished, unfailed and within the staleness window (failed
		// neighbours never publish again and do not hold the gate).
		// Gated cells are skipped, never blocked on — other owned cells
		// and the absorb loop keep running.
		progressed, gated := false, false
		for _, r := range owned.ranks() {
			if !owned.trainable(r) || s.abort.Load() {
				continue
			}
			if owned.cells[r].view.Gated(failedGlobal) {
				gated = true
				continue
			}
			if !owned.iterate(r) {
				continue
			}
			progressed = true
			if err := push(r); err != nil {
				return nil, err
			}
		}

		// (4) Inventory upload after progress. Once the slave has sat idle
		// for asyncUploadEvery, it re-pushes its owned states and
		// re-uploads its inventory — the liveness valve for a lost push or
		// upload: once after a change, and every period while a cell
		// stays gated. Otherwise it stays quiet until something changes.
		idle := !progressed && (repush || gated) && time.Since(lastChange) >= asyncUploadEvery
		if idle {
			for _, r := range owned.ranks() {
				if err := push(r); err != nil {
					return nil, err
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

	version := 0
	buildOU := func(done, abort bool) ownerUpdate {
		u := ownerUpdate{Version: version, Owners: make([]int, nCells), Done: done, Abort: abort}
		for c, t := range track {
			u.Owners[c] = t.owner
			if t.failed {
				u.Failed = append(u.Failed, c)
			}
			if st := t.exchangeState(); st != nil {
				u.States = append(u.States, wireState{Rank: c, Iter: t.iter, Data: st})
			}
		}
		return u
	}
	sendOU := func(dst int, u ownerUpdate) {
		payload, err := u.marshal()
		if err != nil {
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
		for _, dst := range m.liveRanks() {
			u := buildOU(false, false)
			if dst == src {
				u.Adopt = adopt
			}
			sendOU(dst, u)
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
			for _, s := range m.liveRanks() {
				comm.Send(s, tagStateResend, nil) //nolint:errcheck
				sendOU(s, buildOU(false, false))
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
	doneOU := buildOU(true, abort)
	for _, s := range m.liveRanks() {
		sendOU(s, doneOU)
	}
	return func(s int) { sendOU(s, doneOU) }, nil
}
