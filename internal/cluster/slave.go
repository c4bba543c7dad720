package cluster

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
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

	// done is closed by the execution thread when training completes;
	// result holds the final reports after that.
	done chan struct{}

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

	// mu guards result (one report per owned cell, the totals).
	mu     sync.Mutex
	result slaveReports
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
				s.mu.Lock()
				payload, err = s.result.marshal()
				s.mu.Unlock()
				if err != nil {
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
// thread"): it trains in the task's exchange mode and leaves one report
// per owned cell for the control loop to hand to the master.
func (s *slave) execute(task runTask) {
	defer close(s.done)
	defer s.setState(StateFinished)

	run := s.runLockstep
	if task.Async || task.Resilient {
		run = s.runAsync
	}
	reports, err := run(task)
	if err != nil {
		// Training failures surface through the report; the control
		// protocol stays alive so the master can collect and shut down.
		reports = []SlaveReport{{
			CellRank: max(task.CellRank, 0), Node: task.Node,
			MixtureFitness: inf(), Error: err.Error(),
		}}
	}
	s.mu.Lock()
	s.result = slaveReports{Reports: reports, Profile: s.prof.Snapshot()}
	s.mu.Unlock()
}

// runLockstep trains the assigned cell with core.RankLoop on the LOCAL
// communicator — the loop core.RunParallel runs in-process, at staleness
// window 1. The master's abort is the loop's stop signal: the first slave
// to see it picks a halt iteration within the grid's influence diameter,
// its pushes carry it to every peer, and all cells stop at that one
// boundary. Every slave restores to the same iteration (the master
// validated that), as window 1 requires.
func (s *slave) runLockstep(task runTask) ([]SlaveReport, error) {
	owned, err := newOwnedCells(task, &s.prof)
	if err != nil {
		return nil, err
	}
	oc := owned.cells[task.CellRank]
	last, halted, err := core.RankLoop{Comm: s.local, Cell: oc.cell, Stop: s.abort.Load}.Run()
	if err != nil {
		return nil, err
	}
	oc.fitness = last.MixtureFitness
	return owned.reports(halted), nil
}

// ownedCell is one grid cell an execution thread trains, with the
// bookkeeping that travels with it across adoptions and releases.
type ownedCell struct {
	cell *core.Cell
	// x applies the exchange rules to the cell (tolerant modes only); wire
	// is its last push and prev the one before it, both re-sent by the
	// idle re-push. Sent buffers: receivers alias them, nobody writes them.
	x          *core.Exchange
	wire, prev []byte
	// unacked marks a current version that waits for the master's ack
	// before it is pushed (evict policy); halted, a cell at its abort
	// boundary as last uploaded.
	unacked, halted bool
	// failed marks a cell whose training errored; it is kept, reported
	// and no longer iterated. errNote is the error's text.
	failed  bool
	errNote string
	// fitness is the cell's last mixture fitness, inf() until the first
	// iteration completes.
	fitness float64
}

// ownedCells is the working set of a slave's execution thread: the cells
// it currently trains, keyed by grid rank. It starts with the task's own
// cell and grows and shrinks with adoption orders and releases.
type ownedCells struct {
	task  runTask
	grid  *grid.Grid
	prof  *telemetry.Profile
	cells map[int]*ownedCell
}

// newOwnedCells builds the grid and adopts the task's cell (a joiner has
// none yet), its cells timing into prof. task.Full is empty on a fresh
// start and carries the cell's resume state after a whole-job restart.
func newOwnedCells(task runTask, prof *telemetry.Profile) (*ownedCells, error) {
	g, err := core.BuildGridFor(task.Cfg)
	if err != nil {
		return nil, err
	}
	o := &ownedCells{task: task, grid: g, prof: prof, cells: make(map[int]*ownedCell)}
	if task.Joiner {
		return o, nil
	}
	return o, o.adopt(cellBlob{CellRank: task.CellRank, Full: task.Full, Fitness: inf()})
}

// adopt takes over the blob's cell, restoring its full state when the
// blob carries one. Adopting a cell already owned is a no-op, so resent
// adoption orders are harmless.
func (o *ownedCells) adopt(b cellBlob) error {
	if _, ok := o.cells[b.CellRank]; ok {
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
	oc := &ownedCell{cell: c, failed: b.Failed, errNote: b.Error, fitness: b.Fitness}
	if w := o.task.Cfg.EffectiveAsyncStaleness(); o.task.Async || o.task.Resilient {
		if !o.task.Async {
			w = 1 // the evict policy alone is lockstep
		}
		oc.x = core.NewExchange(c, w)
		if h := asyncClusterHooks.onApply; h != nil {
			oc.x.Installed = func(src, iter int) { h(b.CellRank, src, iter, c.Iteration()) }
		}
	}
	o.cells[b.CellRank] = oc
	return nil
}

// ranks returns the owned cell ranks in ascending order, keeping
// per-round work deterministic regardless of map iteration order.
func (o *ownedCells) ranks() []int {
	ranks := make([]int, 0, len(o.cells))
	for r := range o.cells {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// packState encodes the full state of the listed cells (those still
// owned) as an upload for the master.
func (o *ownedCells) packState(round int, ranks []int) ([]byte, error) {
	upd := stateUpdate{Round: round}
	for _, r := range ranks {
		oc, ok := o.cells[r]
		if !ok {
			continue
		}
		f, err := oc.cell.FullState()
		if err != nil {
			return nil, err
		}
		upd.Cells = append(upd.Cells, cellBlob{
			CellRank: r, Iteration: oc.cell.Iteration(), Full: f.Marshal(),
			Failed: oc.failed, Error: oc.errNote, Fitness: oc.fitness, Halted: oc.halted,
		})
	}
	return upd.marshal()
}

// trainable reports whether cell r still owes iterations.
func (o *ownedCells) trainable(r int) bool {
	oc := o.cells[r]
	return !oc.failed && oc.cell.Iteration() < o.task.Cfg.Iterations
}

// iterate trains cell r for one iteration and reports whether it
// succeeded; a failure marks the cell instead of stopping the thread.
func (o *ownedCells) iterate(r int) bool {
	oc := o.cells[r]
	stats, err := oc.cell.Iterate()
	if err != nil {
		oc.failed, oc.errNote = true, err.Error()
		return false
	}
	oc.fitness = stats.MixtureFitness
	return true
}

// reports builds one final report per owned cell.
func (o *ownedCells) reports(aborted bool) []SlaveReport {
	var reports []SlaveReport
	for _, r := range o.ranks() {
		oc := o.cells[r]
		c := oc.cell
		rep := SlaveReport{
			CellRank: r, Node: o.task.Node, Iterations: c.Iteration(),
			Aborted: aborted, Error: oc.errNote,
			MixtureFitness: oc.fitness,
		}
		if c.Iteration() == 0 || oc.failed {
			// Never trained (or broken): never the best mixture.
			rep.MixtureFitness = inf()
		}
		if st, err := c.State(); err == nil {
			rep.State = st.Marshal()
		}
		if f, err := c.FullState(); err == nil {
			rep.Full = f.Marshal()
		}
		rep.MixtureRanks = append([]int(nil), c.Mixture().Ranks...)
		rep.MixtureWeights = append([]float64(nil), c.Mixture().Weights...)
		reports = append(reports, rep)
	}
	return reports
}

// inf is a large finite "never the best" fitness sentinel; real +Inf is
// not JSON-encodable, which the report marshalling requires.
func inf() float64 { return math.MaxFloat64 }
