package cluster

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"

	"cellgan/internal/core"
	"cellgan/internal/grid"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// slave bundles the state shared between a slave's main (communication)
// thread and its execution (training) thread — the two-thread structure of
// §III-B and Fig 3 (right).
type slave struct {
	world *mpi.Comm
	local *mpi.Comm

	state atomic.Uint32
	abort atomic.Bool

	// done is closed by the execution thread when training completes,
	// after it has left its final report in result.
	done   chan struct{}
	result stateUpdate

	// Tolerant-mode plumbing: owner updates, release orders and state
	// acks flow from the control loop, the sole receiver of the master's
	// messages, to the execution thread; tagAsyncState pushes are received
	// by the execution thread directly (they come from peers, not the
	// master, so the two receivers never contend for a message).
	quit      chan struct{} // closed when the control loop exits
	ownerCh   chan ownerUpdate
	releaseCh chan releaseOrder
	ackCh     chan stateAck

	// prof is the slave's routine totals, shared by every cell it trains.
	prof telemetry.Profile
}

func (s *slave) setState(st SlaveState) { s.state.Store(uint32(st)) }
func (s *slave) currentState() SlaveState {
	return SlaveState(s.state.Load())
}

// SlaveOptions tunes RunSlaveOpts beyond the plain worker role.
type SlaveOptions struct {
	// JoinSignal, when non-nil, marks this slave as an elastic reserve:
	// it idles after connecting, and when the channel is closed it asks
	// the master to join the running job (tagJoin) and receive
	// rebalanced cells. Only meaningful when the master runs in async
	// mode.
	JoinSignal <-chan struct{}
}

// RunSlave executes the slave role on a non-zero rank of comm. local must
// be the communicator returned by SplitLocal on this rank. The function
// returns when the master sends the shutdown message.
func RunSlave(comm *mpi.Comm, local *mpi.Comm) error {
	return RunSlaveOpts(comm, local, SlaveOptions{})
}

// RunSlaveOpts is RunSlave with elastic-membership options.
func RunSlaveOpts(comm *mpi.Comm, local *mpi.Comm, sopts SlaveOptions) error {
	if comm.Rank() == 0 {
		return fmt.Errorf("cluster: RunSlave must not run on rank 0")
	}
	if local == nil {
		return fmt.Errorf("cluster: RunSlave needs the LOCAL communicator")
	}
	s := &slave{
		world:     comm,
		local:     local,
		done:      make(chan struct{}),
		quit:      make(chan struct{}),
		ownerCh:   make(chan ownerUpdate, 8),
		releaseCh: make(chan releaseOrder, 8),
		ackCh:     make(chan stateAck, 8),
	}
	s.setState(StateInactive)
	// Whatever ends the control loop (shutdown, comm failure, injected
	// crash) must also release a blocked execution thread.
	defer close(s.quit)

	// Send this node's name to the master (Fig 3: "Send node name").
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = fmt.Sprintf("sim-node-%d", comm.Rank())
	}
	if err := comm.Send(0, tagNodeName, []byte(host)); err != nil {
		return fmt.Errorf("cluster: sending node name: %w", err)
	}

	if sopts.JoinSignal != nil {
		// Elastic reserve: ask to join when signalled. Best-effort — a
		// dead master ends the job anyway.
		go func() {
			select {
			case <-sopts.JoinSignal:
				comm.Send(0, tagJoin, []byte(host)) //nolint:errcheck
			case <-s.quit:
			}
		}()
	}

	// Main thread: serve the control protocol. Once the done owner update
	// is handed over, every later one is its resend: parsing one again only
	// delays the report the master is waiting for.
	doneSeen := false
	for {
		m, err := comm.Recv(0, mpi.AnyTag)
		if err != nil {
			return fmt.Errorf("cluster: slave %d control recv: %w", comm.Rank(), err)
		}
		switch m.Tag {
		case tagRunTask:
			task, err := parseRunTask(m.Data)
			if err != nil {
				return err
			}
			if s.currentState() != StateInactive {
				return fmt.Errorf("cluster: slave %d got run task in state %s", comm.Rank(), s.currentState())
			}
			s.setState(StateProcessing)
			// Launch the execution thread (Fig 3: "Create execution
			// thread"); the main thread keeps serving heartbeats.
			go s.execute(task)
		case tagStatus:
			if err := comm.Send(0, tagStatus, []byte{byte(s.currentState())}); err != nil {
				return err
			}
		case tagAbort:
			s.abort.Store(true)
		case tagStateAck:
			a, err := parseStateAck(m.Data)
			if err != nil {
				return err
			}
			// Non-blocking hand-off: a dropped ack is answered again on the
			// slave's next upload.
			select {
			case s.ackCh <- a:
			default:
			}
		case tagOwnerUpdate:
			if doneSeen {
				break
			}
			u, err := parseOwnerUpdate(m.Data)
			if err != nil {
				return err
			}
			if s.currentState() == StateInactive {
				break // no execution thread yet; the master re-sends
			}
			// Blocking hand-off: an owner update can carry a join grant
			// or the done signal, which must not be dropped. The
			// execution thread drains the channel every pass, and a
			// finished thread is covered by the done fallback.
			select {
			case s.ownerCh <- u:
			case <-s.done:
			}
			doneSeen = u.Done
		case tagRelease:
			r, err := parseReleaseOrder(m.Data)
			if err != nil {
				return err
			}
			if s.currentState() == StateInactive {
				break
			}
			select {
			case s.releaseCh <- r:
			case <-s.done:
			}
		case tagCollect:
			// Non-blocking: an empty reply means "not finished yet" and
			// the master retries after re-sending the done signal.
			var payload []byte
			select {
			case <-s.done:
				if payload, err = s.result.marshal(); err != nil {
					return err
				}
			default:
			}
			if err := comm.Send(0, tagResult, payload); err != nil {
				return err
			}
		case tagShutdown:
			return nil
		default:
			return fmt.Errorf("cluster: slave %d unexpected control tag %d", comm.Rank(), m.Tag)
		}
	}
}

// execute is the slave's execution thread (Fig 3: "Create execution
// thread"): it trains in the task's exchange mode and leaves its final
// report — the blob of every cell it owns at the end, and its profile —
// for the control loop to hand to the master. A thread that fails stamps
// its error on each cell it owned then, beside the state the cell
// reached; one that owned none reports none. The report is in place
// before the status reads finished.
func (s *slave) execute(task runTask) {
	defer s.setState(StateFinished)
	defer close(s.done)

	o, err := newOwnedCells(task, &s.prof, s.abort.Load)
	if err == nil {
		if task.Async || task.Resilient {
			err = s.runAsync(o)
		} else {
			// The plain mode trains its one cell over the LOCAL
			// communicator at window 1, blocking on the mailbox as
			// core.RunParallel's drivers do. The master's abort is the
			// driver's stop signal: every cell halts within the grid's
			// influence diameter, all at one boundary.
			o.d.Comm, o.d.Tag = s.local, tagAsyncState
			err = o.d.Run()
		}
		for _, oc := range o.d.Cells() {
			b, _ := blobOf(oc) // a state that does not encode goes without Full
			if err != nil {
				b.Failed, b.Error = true, err.Error()
			}
			s.result.Cells = append(s.result.Cells, b)
		}
	}
	s.result.Profile = s.prof.Snapshot()
}

// ownedCells is the working set of a slave's execution thread: the driver
// of the cells it currently trains. It starts with the task's own cell and
// grows and shrinks with adoption orders and releases.
type ownedCells struct {
	task runTask
	grid *grid.Grid
	prof *telemetry.Profile
	d    *core.Driver
	// kept holds each cell's last two pushes, newest last, for the idle
	// re-push, with the holds that keep them off the free list.
	kept map[int][]keptPush
}

// keptPush is a push held for the re-push and the release of its hold.
type keptPush struct {
	push    []byte
	release func()
}

// newOwnedCells builds the grid and the driver, polling stop, and adopts
// the task's cell (a joiner has none yet), its cells timing into prof.
// task.Full is empty on a fresh start and carries the cell's resume state
// after a whole-job restart. The evict policy alone runs staleness window
// 1, as does the plain mode.
func newOwnedCells(task runTask, prof *telemetry.Profile, stop func() bool) (*ownedCells, error) {
	g, err := core.BuildGridFor(task.Cfg)
	if err != nil {
		return nil, err
	}
	d := &core.Driver{Window: 1, Target: task.Cfg.Iterations, Stop: stop, Hooks: &asyncClusterHooks.driver}
	if task.Async {
		d.Window = task.Cfg.EffectiveAsyncStaleness()
	}
	o := &ownedCells{task: task, grid: g, prof: prof, d: d, kept: make(map[int][]keptPush)}
	if task.Joiner {
		return o, nil
	}
	return o, o.adopt(cellBlob{CellRank: task.CellRank, Full: task.Full, Fitness: inf()})
}

// adopt takes over the blob's cell, restoring its full state when the
// blob carries one. Adopting a cell already owned is a no-op, so resent
// adoption orders are harmless. Under the evict policy no version of the
// cell goes out before the master acknowledges holding it.
func (o *ownedCells) adopt(b cellBlob) error {
	if o.d.Lookup(b.CellRank) != nil {
		return nil
	}
	c, err := core.NewCell(o.task.Cfg, b.CellRank, o.grid, o.prof)
	if err != nil {
		return err
	}
	if len(b.Full) > 0 {
		f, err := core.UnmarshalFullState(b.Full)
		if err != nil {
			return fmt.Errorf("cluster: decoding cell %d state: %w", b.CellRank, err)
		}
		if err := c.RestoreFull(f); err != nil {
			return fmt.Errorf("cluster: restoring cell %d state: %w", b.CellRank, err)
		}
	}
	oc := o.d.Own(c)
	oc.Last.MixtureFitness = b.Fitness
	if b.Failed {
		oc.Err = errors.New(b.Error)
	}
	if o.task.Resilient {
		oc.Held = -1
	}
	return nil
}

// keep is the driver's Keep: it holds cell r's new push p and lets go of
// the one two pushes before it.
func (o *ownedCells) keep(r int, p []byte) {
	k := append(o.kept[r], keptPush{p, o.d.Comm.Hold(p)})
	if len(k) > 2 {
		k[0].release()
		k = k[1:]
	}
	o.kept[r] = k
}

// drop stops training cell r and lets go of its pushes.
func (o *ownedCells) drop(r int) {
	o.d.Drop(r)
	for _, k := range o.kept[r] {
		k.release()
	}
	delete(o.kept, r)
}

// packState encodes the full state of the listed cells (those still
// owned) as an upload for the master.
func (o *ownedCells) packState(round int, ranks []int) ([]byte, error) {
	upd := stateUpdate{Round: round}
	for _, r := range ranks {
		if oc := o.d.Lookup(r); oc != nil {
			b, err := blobOf(oc)
			if err != nil {
				return nil, err
			}
			upd.Cells = append(upd.Cells, b)
		}
	}
	return upd.marshal()
}

// blobOf packs owned cell oc's full state and standing.
func blobOf(oc *core.Owned) (cellBlob, error) {
	b := cellBlob{CellRank: oc.Cell.Rank, Iteration: oc.Cell.Iteration(), Failed: oc.Err != nil,
		Fitness: oc.Last.MixtureFitness, Halted: oc.Halted()}
	if oc.Err != nil {
		b.Error = oc.Err.Error()
	}
	f, err := oc.Cell.FullState()
	if err == nil {
		b.Full, b.MixtureRanks, b.MixtureWeights = f.Marshal(), f.MixtureRanks, f.MixtureWeights
	}
	return b, err
}

// ranks returns the owned cell ranks in ascending order.
func (o *ownedCells) ranks() []int {
	var ranks []int
	for _, oc := range o.d.Cells() {
		ranks = append(ranks, oc.Cell.Rank)
	}
	return ranks
}

// inf is a large finite "never the best" fitness sentinel; real +Inf is
// not JSON-encodable, which the blob marshalling requires.
func inf() float64 { return math.MaxFloat64 }
