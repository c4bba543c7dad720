package cluster

import (
	"errors"
	"fmt"
	"time"

	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// This file is the master side of the failure-tolerant runtime. In
// resilient mode the per-iteration neighbour exchange runs through the
// master in globally-synchronous rounds: every live slave uploads the full
// training state of its cells (tagStateUpdate), the master merges the grid
// view and answers with every cell's exchange state (tagNeighborSet), and
// the slaves train one iteration. Because the master always holds each
// cell's last full state, a slave that stops participating can be evicted
// and its cells re-dispatched to survivors, resuming bit-exactly.
//
// Eviction is deliberately driven by missed rounds, not heartbeat
// wall-clock timing: round progress is determined by the message schedule,
// so a chaos run with a fixed (seed, schedule) pair evicts the same slave
// in the same round every time. Strikes are progress-gated — a laggard is
// only struck once a peer has delivered the round, so machine-wide load
// (which slows every slave alike) cannot evict a healthy slave. The
// heartbeat thread still runs, but in resilient mode it only records
// Fig 2 state transitions and logs unresponsive slaves. Everything around
// the round loop — name gathering, dispatch, that monitor, collection —
// is the skeleton in master.go.

// retrySend sends with capped retries and exponential backoff, giving up
// immediately on permanent transport errors. Each re-sent attempt is
// counted in retries (nil-safe).
func retrySend(c *mpi.Comm, dst, tag int, data []byte, retries *telemetry.Counter) error {
	var err error
	backoff := 10 * time.Millisecond
	for i := 0; i < 4; i++ {
		if i > 0 {
			retries.Inc()
		}
		if err = c.Send(dst, tag, data); err == nil {
			return nil
		}
		if errors.Is(err, mpi.ErrClosed) || errors.Is(err, mpi.ErrCrashed) {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	return err
}

// cellTrack is the master's view of one grid cell.
type cellTrack struct {
	owner   int    // slave rank currently training the cell
	iter    int    // highest iteration seen
	full    []byte // marshalled core.FullState at iter
	state   []byte // marshalled core.CellState extracted from full, on demand
	failed  bool
	errNote string
	fitness float64
}

// exchangeState returns the cell's marshalled center snapshot, the part of
// full its neighbours need. Decoding a full state costs tens of
// milliseconds per cell, so merges only move the blob and the snapshot is
// derived on first use.
func (t *cellTrack) exchangeState() []byte {
	if t.state == nil && len(t.full) > 0 {
		if f, err := core.UnmarshalFullState(t.full); err == nil {
			t.state = f.Cell.Marshal()
		}
	}
	return t.state
}

// unfinished reports whether the cell still owes iterations.
func (t *cellTrack) unfinished(target int) bool { return !t.failed && t.iter < target }

// initTrack starts the inventory with the one-cell-per-slave assignment,
// seeded from the resume states when the job is resuming.
func (m *master) initTrack() {
	m.track = make([]*cellTrack, m.nCells)
	for c := range m.track {
		m.track[c] = &cellTrack{owner: c + 1, fitness: inf()}
	}
	if m.opts.Resume != nil {
		seedTrackFromResume(m.track, m.opts.Resume)
	}
}

// trackIters lists every cell's gathered iteration, for the event log.
func (m *master) trackIters() []int {
	its := make([]int, len(m.track))
	for c, t := range m.track {
		its[c] = t.iter
	}
	return its
}

// merge folds uploaded cell states into the inventory and reports whether
// any cell advanced. Monotonic: training is deterministic, so for a given
// iteration count the state content is unique and duplicate or late
// uploads are harmless.
func (m *master) merge(cells []cellBlob) bool {
	advanced := false
	for _, cb := range cells {
		if cb.CellRank < 0 || cb.CellRank >= m.nCells {
			continue
		}
		t := m.track[cb.CellRank]
		if cb.Iteration < t.iter {
			continue
		}
		advanced = advanced || cb.Iteration > t.iter
		t.iter, t.full, t.state = cb.Iteration, cb.Full, nil
		t.failed, t.errNote, t.fitness = cb.Failed, cb.Error, cb.Fitness
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

// finished decides, after a merge, whether training is over: every cell
// done, or the job cut short by its time limit or an interrupt (logged,
// and recorded in the result).
func (m *master) finished() (done, abort bool) {
	abort = interrupted(m.opts.Interrupt) ||
		(m.opts.Cfg.TimeLimit > 0 && time.Since(m.started) > m.opts.Cfg.TimeLimit)
	done = true
	for _, t := range m.track {
		if t.unfinished(m.opts.Cfg.Iterations) {
			done = false
			break
		}
	}
	return done || abort, abort
}

// runRounds is the resilient middle: synchronous exchange rounds through
// the master, striking and evicting slaves that stop taking part.
func (m *master) runRounds() (resend func(s int), err error) {
	comm, opts, track := m.comm, m.opts, m.track
	if opts.Resume != nil {
		m.logf("master: resumed %d cells from iteration %d", m.nCells, track[0].iter)
	}
	ck := newMasterCkpt(opts, true, m.logf)

	// evict removes a slave and re-dispatches its cells to the live
	// survivor owning the fewest cells (lowest rank breaks ties) — a
	// deterministic choice.
	adoptQueue := make(map[int][]cellBlob)
	evict := func(s int, why string) {
		m.setLive(s, false)
		opts.Metrics.Evictions.Inc()
		m.logf("master: evicting slave %d (%s)", s, why)
		comm.Send(s, tagShutdown, nil) //nolint:errcheck // best-effort zombie release
		owned := func(sl int) int {
			n := 0
			for _, t := range track {
				if t.owner == sl {
					n++
				}
			}
			return n
		}
		for c, t := range track {
			if t.owner != s {
				continue
			}
			survivor := 0
			for _, cand := range m.liveRanks() {
				if survivor == 0 || owned(cand) < owned(survivor) {
					survivor = cand
				}
			}
			if survivor == 0 {
				return // no survivors; the round loop errors out
			}
			t.owner = survivor
			opts.Metrics.Redispatches.Inc()
			adoptQueue[survivor] = append(adoptQueue[survivor], m.adoptOrder(c))
			m.logf("master: reassigned cell %d from slave %d to slave %d (re-dispatching from iteration %d)",
				c, s, survivor, t.iter)
		}
	}

	lastNS := make(map[int][]byte)
	resend = func(s int) {
		// Lost collect or slave still finalising: re-send the Done round.
		if p := lastNS[s]; p != nil {
			comm.Send(s, tagNeighborSet, p) //nolint:errcheck
		}
	}
	strikes := make(map[int]int)
	for round := 0; ; round++ {
		// Collect this round's update from every live slave. A timeout
		// strikes all laggards; MaxStrikes consecutive misses evict.
		reported := make(map[int]bool)
		barren := 0 // consecutive timeouts with no report at all this round
		for {
			var pending []int
			for _, s := range m.liveRanks() {
				if !reported[s] {
					pending = append(pending, s)
				}
			}
			if len(pending) == 0 {
				break
			}
			msg, err := comm.RecvTimeout(mpi.AnySource, tagStateUpdate, opts.RoundTimeout)
			if err != nil {
				for _, s := range pending {
					// Strike only when a peer has already made this round:
					// a laggard is a slave that falls behind the others, not
					// one slowed by machine-wide load. When nobody reported,
					// the nudge below is still sent (updates may all have
					// been lost in transit) but strikes accrue on a 4× more
					// patient schedule — that fallback is what eventually
					// fails a job whose every slave died.
					if len(reported) > 0 || barren >= 4*opts.MaxStrikes {
						strikes[s]++
						if strikes[s] >= opts.MaxStrikes {
							evict(s, fmt.Sprintf("missed %d consecutive rounds", strikes[s]))
							continue
						}
					}
					// Nudge: the update or the previous neighbor set may
					// have been lost — re-request and re-send.
					comm.Send(s, tagStateResend, nil) //nolint:errcheck
					resend(s)
				}
				if len(reported) == 0 {
					barren++
				}
				continue
			}
			if !m.isLive(msg.Src) {
				continue // late message from an evicted slave
			}
			upd, err := parseStateUpdate(msg.Data)
			if err != nil {
				m.logf("master: bad state update from slave %d: %v", msg.Src, err)
				continue
			}
			opts.Metrics.StateUpdates.Inc()
			m.merge(upd.Cells)
			if upd.Round == round {
				reported[msg.Src] = true
				strikes[msg.Src] = 0
			}
		}
		if len(m.liveRanks()) == 0 {
			return nil, fmt.Errorf("cluster: all %d slaves lost, job cannot complete", m.nSlaves)
		}

		// Round complete: decide whether training is over and publish the
		// merged grid view. The completed round is a consistent cut — every
		// live cell's gathered state sits at the same iteration — so this is
		// where a periodic checkpoint is taken.
		opts.Metrics.Rounds.Inc()
		ck.observe(track)
		done, abort := m.finished()
		ns := neighborSet{Round: round, Done: done, Abort: abort}
		for c, t := range track {
			if st := t.exchangeState(); st != nil {
				ns.States = append(ns.States, wireState{Rank: c, Iter: t.iter, Data: st})
			}
		}
		for _, s := range m.liveRanks() {
			nsS := ns
			nsS.Adopt = adoptQueue[s]
			adoptQueue[s] = nil // future resends carry it via lastNS
			payload, err := nsS.marshal()
			if err != nil {
				return nil, err
			}
			lastNS[s] = payload
			if err := retrySend(comm, s, tagNeighborSet, payload, opts.Metrics.SendRetries); err != nil {
				m.logf("master: neighbor set to slave %d failed: %v", s, err)
			}
		}
		if done {
			if abort {
				m.res.Aborted = true
				m.logf("master: %s, finishing round %d with abort", m.abortReason(), round)
			}
			m.logf("master: training done after round %d, collecting results", round)
			return resend, nil
		}
	}
}
