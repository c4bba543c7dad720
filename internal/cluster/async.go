package cluster

import (
	"bytes"
	"fmt"
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

// asyncClusterHooks observe the cluster from tests. Set before a job
// starts and never mutated during one; nil fields are skipped.
var asyncClusterHooks struct {
	// driver observes every slave's core.Driver.
	driver core.Hooks
	// onHold fires after the master merges an upload of cell from its
	// owner and holds the cell at iter.
	onHold func(cell, iter int)
}

// runAsync is the execution thread of a tolerant slave: one core.Driver
// stepping every owned cell — settle, iterate when the gate is open, push —
// over the world communicator, with the control plane around each pass. The
// driver's owned set, owner map and exempt set follow the owner updates and
// release orders that arrive from the control loop. Under the evict policy
// a cell's new version goes out only once the master acknowledges holding
// it (its Held), and the cell does not iterate again before it has. The
// master's abort is the driver's stop signal: every cell halts within W·D
// iterations, all at one boundary. It returns once the done signal has
// arrived and every owned cell has settled its last boundary.
func (s *slave) runAsync(o *ownedCells) error {
	myRank, nCells, d := s.world.Rank(), o.task.Cfg.NumCells(), o.d
	d.Comm, d.Tag, d.Owners, d.Exempt, d.Keep = s.world, tagAsyncState, make([]int, nCells), make(map[int]bool), o.keep
	for c := range d.Owners {
		d.Owners[c] = c + 1 // the initial one-cell-per-slave assignment
	}
	errQuit := fmt.Errorf("cluster: slave %d control loop exited mid-run", myRank)

	version, done := -1, false
	// changed marks owned cells that differ from the last upload, re-sent
	// as is while they do not; evict-policy starting cells upload at once,
	// to be acknowledged and pushed.
	lastChange, repush, changed := time.Now(), false, o.task.Resilient
	var upload []byte
	for {
		// Control messages from the master, via the control loop.
		for ctl := true; ctl; {
			select {
			case u := <-s.ownerCh:
				if u.Version < version || len(u.Owners) != nCells {
					continue // stale resend or foreign-grid noise
				}
				version = u.Version
				copy(d.Owners, u.Owners)
				for _, c := range u.Failed {
					d.Exempt[c] = true
				}
				for _, ad := range u.Adopt {
					if err := o.adopt(ad); err != nil {
						return err
					}
				}
				// The catch-all for a release lost mid-flight: ownership
				// says the cell is elsewhere, so stop training it.
				for _, r := range o.ranks() {
					if d.Owners[r] != myRank {
						o.drop(r)
					}
				}
				// A seed is a snapshot like any push's, and advisory.
				for i := range u.States {
					if st, err := core.UnmarshalCellState(u.States[i].Data); err == nil {
						d.Offer(st)
					}
				}
				// Once training is done a pass only settles: the done
				// update's seeds are every cell's final state, so each
				// final boundary settles in the pass below.
				if u.Done {
					done, d.Target = true, 0
				}
				lastChange, repush, changed = time.Now(), true, true // pushes may aim at new owners
			case a := <-s.ackCh:
				for _, h := range a.Held {
					if oc := d.Lookup(h.Cell); oc != nil {
						oc.Held = max(oc.Held, h.Iter)
					}
				}
			case r := <-s.releaseCh:
				// Return the released cells' state and stop training
				// them; the ack echoes the order's version in Round.
				payload, err := o.packState(r.Version, r.Cells)
				if err != nil {
					return err
				}
				for _, cr := range r.Cells {
					o.drop(cr)
				}
				changed = true
				if err := s.world.Send(0, tagReleaseAck, payload); err != nil {
					return err
				}
			case <-s.quit:
				return errQuit
			default:
				ctl = false
			}
		}

		// One pass of the driver over the owned cells: gated cells are
		// skipped, never blocked on; failed neighbours never publish again
		// and hold no gate.
		moved, waiting, err := d.Pass()
		if err != nil || done {
			return err
		}

		// Inventory upload after a move or a change. Once the slave has sat
		// idle for asyncUploadEvery, it re-pushes its owned cells' last two
		// pushes and re-uploads its inventory — the liveness valve for a
		// lost push, upload or ack: once after a change (a re-push stays due
		// until an idle pass sends it), and every period while a cell stays
		// gated or its version waits for the ack. Otherwise it stays quiet.
		// The push before the last goes out again too: a neighbour that lost
		// it can be gated on it while the newer one is beyond its window,
		// and nothing else would ever resend it. An upload is never written
		// once packed, so it is handed over, not copied.
		idle := !moved && (repush || waiting) && time.Since(lastChange) >= asyncUploadEvery
		if idle {
			for _, r := range o.ranks() {
				for _, k := range o.kept[r] {
					d.Resend(r, k.push)
				}
			}
		}
		if changed || moved || idle {
			if changed || moved || upload == nil {
				if upload, err = o.packState(0, o.ranks()); err != nil {
					return err
				}
			}
			s.world.Multicast([]int{0}, tagStateUpdate, upload) //nolint:errcheck
			lastChange, repush, changed = time.Now(), moved || repush && !idle, false
		}
		if !moved {
			select {
			case <-s.quit:
				return errQuit
			case <-time.After(asyncIdleSleep):
			}
		}
	}
}

// cellTrack is the master's view of one grid cell: the newest blob merged
// from its owner — what an adoption order hands the next owner and what
// the cell's report is built from — and the bookkeeping around it.
type cellTrack struct {
	cellBlob
	owner int    // slave rank currently training the cell
	prev  []byte // the full state merged before Full, decoded only for seeds
	state []byte // marshalled core.CellState extracted from Full, on demand
	// final marks a cell whose owner delivered its final report.
	final bool
}

// exchangeState returns the cell's marshalled center snapshot, the part of
// Full its neighbours need. Decoding a full state costs tens of
// milliseconds per cell, so merges only move the blob and the snapshot is
// derived on first use.
func (t *cellTrack) exchangeState() []byte {
	if t.state == nil {
		t.state, _ = centerOf(t.Full)
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
func (t *cellTrack) unfinished(target int) bool {
	return !t.Failed && !t.Halted && t.Iteration < target
}

// trackIters lists every cell's gathered iteration, for the event log.
func (m *master) trackIters() []int {
	its := make([]int, len(m.track))
	for c, t := range m.track {
		its[c] = t.Iteration
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
		if !m.owns(src, cb.CellRank) {
			continue
		}
		t := m.track[cb.CellRank]
		if cb.Iteration > t.Iteration {
			advanced = true
			t.prev = t.Full
			m.ck.merged(cb.CellRank, cb.Iteration, cb.Full)
		}
		if cb.Iteration >= t.Iteration {
			t.cellBlob, t.state = cb, nil
		}
		if h := asyncClusterHooks.onHold; h != nil {
			h(cb.CellRank, t.Iteration)
		}
	}
	return advanced
}

// owns reports whether slave src owns cell c, a rank off the wire.
func (m *master) owns(src, c int) bool { return c >= 0 && c < m.nCells && m.track[c].owner == src }

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
	encodeOU := func(done bool, adopt []cellBlob, moved []int) []byte {
		u := ownerUpdate{Version: version, Owners: make([]int, nCells), Adopt: adopt, Done: done}
		for c, t := range track {
			u.Owners[c] = t.owner
			if t.Failed {
				u.Failed = append(u.Failed, c)
			}
			if st := t.exchangeState(); st != nil {
				u.States = append(u.States, wireState{Rank: c, Iter: t.Iteration, Data: st})
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
		peers := encodeOU(false, nil, moved)
		for _, dst := range m.liveRanks() {
			if a := adopt[dst]; a != nil {
				sendOU(dst, encodeOU(false, a, moved))
			} else {
				sendOU(dst, peers)
			}
		}
	}

	// join runs the whole protocol for one reserve slave: deterministic
	// rebalance choice, release/ack recall of the moving cells' freshest
	// state, grant to the joiner, broadcast to peers.
	heard := make(map[int]time.Time) // evict policy: each live slave's last upload
	join := func(src int) {
		if src <= 0 || src > m.nSlaves || m.live[src] {
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
			adopt = append(adopt, track[c].cellBlob)
			m.logf("master: rebalanced cell %d to joiner %d (from iteration %d)", c, src, track[c].Iteration)
		}
		task := runTask{Cfg: opts.Cfg, CellRank: -1, Async: true, Resilient: opts.Resilient, Joiner: true}
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
			adopt[survivor] = append(adopt[survivor], t.cellBlob)
			moved = append(moved, c)
			m.logf("master: reassigned cell %d from slave %d to slave %d (re-dispatching from iteration %d)",
				c, s, survivor, t.Iteration)
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
			m.observeState(src, StateProcessing) // Fig 2: an uploading slave is training
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
					ack.Held = append(ack.Held, cellIter{Cell: c, Iter: t.Iteration})
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
		if !m.res.Aborted && (interrupted(opts.Interrupt) || (limit > 0 && time.Since(m.started) > limit)) {
			m.res.Aborted, lastAdvance = true, time.Now()
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
		if m.res.Aborted && !opts.Resilient && time.Since(lastAdvance) >= time.Duration(opts.MaxStrikes)*opts.RoundTimeout {
			m.logf("master: aborted and no cell advanced for %s, ending the job", time.Duration(opts.MaxStrikes)*opts.RoundTimeout)
			break
		}

		// Stall nudge: a fresh owner update with seed states heals a gate
		// starved by lost pushes, and the re-push and re-upload it prompts
		// heal a master view starved by lost uploads.
		if time.Since(lastProgress) >= opts.RoundTimeout {
			m.logf("master: no progress for %s, nudging %d slaves", opts.RoundTimeout, len(m.liveRanks()))
			version++
			nudge := encodeOU(false, nil, nil)
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
	doneOU := encodeOU(true, nil, nil)
	for _, s := range m.liveRanks() {
		sendOU(s, doneOU)
	}
	return func(s int) { sendOU(s, doneOU) }, nil
}
