package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// MasterOptions tunes the master process.
type MasterOptions struct {
	// Cfg is the experiment configuration broadcast to the slaves.
	Cfg config.Config
	// Inventory is the simulated cluster; nil uses DefaultInventory.
	Inventory Inventory
	// HeartbeatInterval is the period of the monitoring thread
	// ("Wait X seconds" in Fig 3); 0 defaults to 50 ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the master waits for a slave's status
	// reply before declaring it dead; 0 defaults to 10 s.
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives the master's event log lines as they
	// are produced.
	Logf func(format string, args ...interface{})

	// Resilient enables the evict membership policy of the tolerant
	// exchange (staleness window 1 unless Async is also set): the master
	// holds every cell's state at a version no peer has consumed past, and
	// a slave that stays silent for MaxStrikes round timeouts is evicted
	// with its cells re-dispatched to survivors, resuming bit-exactly.
	// Eviction is strike-count-based and progress-gated, so chaos runs
	// with a fixed (seed, schedule) are reproducible.
	Resilient bool
	// RoundTimeout is the silence that earns a slave a strike under the
	// evict policy, and the stall-nudge and collection timeout of both
	// tolerant modes; 0 defaults to 1 s. Strikes are progress-gated: a
	// slave is only struck while another slave's upload arrived, so
	// uniform slowness never evicts anyone.
	RoundTimeout time.Duration
	// MaxStrikes is how many consecutive strikes evict a slave under the
	// evict policy; without it, an aborted job in which no cell advanced
	// for MaxStrikes round timeouts ends with the stalled cells where they
	// are. 0 defaults to 3.
	MaxStrikes int

	// Async enables the asynchronous cluster exchange: slaves push cell
	// snapshots directly to each other under a bounded-staleness window
	// (Cfg.AsyncStaleness) and the master only tracks inventory and
	// membership. Composes with Resilient, which adds eviction.
	Async bool
	// JoinSlots is how many extra communicator ranks beyond
	// Cfg.NumTasks() are connected reserves that may join mid-run
	// (async mode only).
	JoinSlots int

	// Interrupt, when non-nil, aborts the job once closed: the master
	// tells every slave to stop, every cell halts within W·D iterations,
	// all at one boundary, and the master collects results normally,
	// exactly as when Cfg.TimeLimit expires.
	Interrupt <-chan struct{}
	// Metrics, when non-nil, receives the master's runtime counters; nil
	// records nothing.
	Metrics *Metrics

	// Resume, when non-nil, seeds every cell from a prior run's full
	// states (one per cell, in rank order): the master dispatches each
	// state with its run task and tracks the recorded iterations from the
	// start. Lockstep modes require uniform iterations; async accepts the
	// mixed iterations its own snapshots record.
	Resume []*core.FullState
	// CheckpointEvery, with CheckpointSink, makes the master emit
	// periodic whole-job snapshots from its gathered inventory: a
	// consistent cut at every CheckpointEvery-th iteration under the evict
	// policy, a best-effort newest-wins snapshot each time the slowest cell
	// crosses a cadence in plain async mode. The plain mode holds no inventory
	// and ignores the cadence. Sink failures are logged and counted,
	// never fatal — losing a snapshot must not kill the training run.
	CheckpointEvery int
	CheckpointSink  func(iteration int, states []*core.FullState) error
}

// The defaults of MasterOptions.RoundTimeout and MaxStrikes: under the
// evict policy a slave silent for about their product is evicted, which
// mpi.HardenedTCPOptions' give-up time stays well inside.
const (
	defaultRoundTimeout = time.Second
	defaultMaxStrikes   = 3
)

// RunMaster executes the master role on rank 0 of comm (Fig 3, left). The
// communicator must have exactly Cfg.NumTasks() ranks — the master plus
// one slave per grid cell — plus JoinSlots connected reserves in async
// mode. Every rank must call SplitLocal first so the collective contexts
// exist on all processes.
func RunMaster(comm *mpi.Comm, opts MasterOptions) (*JobResult, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("cluster: RunMaster must run on rank 0, got %d", comm.Rank())
	}
	if err := opts.Cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.JoinSlots < 0 {
		return nil, fmt.Errorf("cluster: negative JoinSlots %d", opts.JoinSlots)
	}
	want := opts.Cfg.NumTasks()
	if opts.Async {
		want += opts.JoinSlots
	}
	if comm.Size() != want {
		return nil, fmt.Errorf("cluster: config needs %d tasks, communicator has %d", want, comm.Size())
	}
	if opts.Inventory == nil {
		opts.Inventory = DefaultInventory()
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 50 * time.Millisecond
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 10 * time.Second
	}
	if opts.RoundTimeout <= 0 {
		opts.RoundTimeout = defaultRoundTimeout
	}
	if opts.MaxStrikes <= 0 {
		opts.MaxStrikes = defaultMaxStrikes
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(nil)
	}
	if err := validateResume(opts); err != nil {
		return nil, err
	}
	m := &master{
		comm: comm, opts: opts, res: &JobResult{}, started: time.Now(),
		nSlaves: comm.Size() - 1, nCells: opts.Cfg.NumCells(),
		tolerant: opts.Async || opts.Resilient,
		live:     make(map[int]bool),
	}
	m.states = make([]SlaveState, m.nSlaves+1)
	m.gatherNames()
	if err := m.dispatch(); err != nil {
		return nil, err
	}

	// The mode-specific middle: everything between "the slaves are
	// training" and "training is over". It returns how to re-send a slave
	// the end-of-training signal, for collection to retry with.
	resend := func(int) {}
	if !m.tolerant {
		// The plain master has nothing to do while the slaves train but
		// watch them: the heartbeat monitor is its whole middle.
		if err := m.heartbeat(nil); err != nil {
			return nil, fmt.Errorf("cluster: heartbeat thread: %w", err)
		}
		m.logf("master: all slaves finished, collecting results")
	} else {
		// Advisory monitor beside the middle: it records Fig 2
		// transitions and logs unresponsive slaves but never fails the
		// job — membership is the middle's (deterministic) decision. It
		// is stopped while the slaves still answer: a probe sent to one
		// that has shut down would wait out the whole heartbeat timeout.
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			m.heartbeat(stop) //nolint:errcheck // advisory monitors return nil
		}()
		m.initTrack()
		var err error
		resend, err = m.runAsync()
		close(stop)
		<-stopped
		if err != nil {
			return nil, err
		}
	}

	if err := m.collect(resend); err != nil {
		return nil, err
	}
	// Shut every connected rank down: evicted zombies and reserves that
	// never joined too. Best-effort — the results are already in hand.
	for s := 1; s <= m.nSlaves; s++ {
		comm.Send(s, tagShutdown, nil) //nolint:errcheck
	}

	// Reduction phase: return the best mixture overall.
	res := m.res
	best := 0
	for i, r := range res.Reports {
		if r.MixtureFitness < res.Reports[best].MixtureFitness {
			best = i
		}
	}
	res.BestCell = res.Reports[best].CellRank
	res.Elapsed = time.Since(m.started)
	m.logf("master: best cell %d (mixture fitness %.4f), elapsed %s",
		res.BestCell, res.Reports[best].MixtureFitness, res.Elapsed.Round(time.Millisecond))
	return res, nil
}

// master is the state of one RunMaster call, shared by the stages every
// exchange mode runs (gather, place, dispatch, monitor, collect) and the
// mode-specific middle between them.
type master struct {
	comm    *mpi.Comm
	opts    MasterOptions
	res     *JobResult
	started time.Time
	// nSlaves counts the connected slave ranks (async reserves included);
	// ranks 1..nCells are dispatched a cell at start.
	nSlaves, nCells int
	// tolerant is set in the resilient and async modes, which share one
	// middle and whose jobs survive a lost slave: failed sends and silent
	// slaves are logged and left to its membership policy instead of
	// failing the job.
	tolerant bool
	names    []string

	// mu guards res.Log, res.Transitions, states and live: the heartbeat
	// monitor runs beside the middle.
	mu     sync.Mutex
	states []SlaveState
	// live is the set of slaves taking part in the job — monitored,
	// collected from. Eviction removes a slave, a join adds one.
	live map[int]bool

	// track is the per-cell inventory and ck its periodic snapshots
	// (tolerant modes only; the plain master holds none).
	track []*cellTrack
	ck    *masterCkpt
}

func (m *master) logf(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	m.mu.Lock()
	m.res.Log = append(m.res.Log, line)
	m.mu.Unlock()
	if m.opts.Logf != nil {
		m.opts.Logf("%s", line)
	}
}

func (m *master) setLive(s int, on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if on {
		m.live[s] = true
	} else {
		delete(m.live, s)
	}
	m.opts.Metrics.LiveSlaves.Set(float64(len(m.live)))
}

func (m *master) isLive(s int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[s]
}

// liveRanks returns the live slaves in ascending rank order.
func (m *master) liveRanks() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.live))
	for s := range m.live {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// gatherNames is step (i) of Fig 3: the slaves report their node names.
// The wait is bounded, so a slave that died before start-up delays the
// job by one heartbeat timeout instead of hanging it; what happens to the
// silent slave is the monitor's (plain) or the middle's decision.
func (m *master) gatherNames() {
	m.names = make([]string, m.nSlaves+1)
	m.names[0] = "master"
	got := 0
	deadline := time.Now().Add(m.opts.HeartbeatTimeout)
	for got < m.nSlaves {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		msg, err := m.comm.RecvTimeout(mpi.AnySource, tagNodeName, left)
		if err != nil {
			break
		}
		if m.names[msg.Src] == "" {
			m.names[msg.Src] = string(msg.Data)
			got++
		}
	}
	m.logf("master: gathered %d/%d slave node names (%d reserve slots)", got, m.nSlaves, m.nSlaves-m.nCells)
}

// dispatch is steps (ii)–(iv): decide placement over the whole world
// (reserves included), balancing load across nodes, then share the
// configuration and start one slave per cell. Reserves idle until they
// ask to join.
func (m *master) dispatch() error {
	opts := m.opts
	placements, err := Allocate(opts.Inventory, m.comm.Size(), opts.Cfg.MemoryPerTaskMB)
	if err != nil {
		return err
	}
	m.res.Placements = placements
	m.logf("master: placed %d tasks on %d nodes (%d MB total)",
		m.comm.Size(), len(Summary(placements)), opts.Cfg.MemoryMB())

	for s := 1; s <= m.nCells; s++ {
		task := runTask{
			Cfg: opts.Cfg, CellRank: s - 1,
			Node: placements[s].Node, Core: placements[s].Core,
			Resilient: opts.Resilient, Async: opts.Async,
		}
		if opts.Resume != nil {
			task.Full = opts.Resume[s-1].Marshal()
		}
		if err := m.sendTask(s, task); err != nil {
			return err
		}
		m.setLive(s, true)
	}
	mode := ""
	switch {
	case opts.Async:
		mode = "async "
	case opts.Resilient:
		mode = "resilient "
	}
	m.logf("master: sent %srun task to %d slaves", mode, m.nCells)
	return nil
}

// sendTask delivers a run task. A tolerant job survives the failure: a
// slave that never starts never uploads, and under the evict policy its
// cell is re-dispatched.
func (m *master) sendTask(s int, task runTask) error {
	payload, err := task.marshal()
	if err != nil {
		return err
	}
	if err := m.comm.Send(s, tagRunTask, payload); err != nil {
		if !m.tolerant {
			return fmt.Errorf("cluster: sending run task to slave %d: %w", s, err)
		}
		m.logf("master: sending run task to slave %d failed: %v", s, err)
	}
	return nil
}

// observeState records a slave's Fig 2 state when it differs from the
// last one seen.
func (m *master) observeState(s int, st SlaveState) {
	m.mu.Lock()
	from := m.states[s]
	if st != from {
		m.states[s] = st
		m.res.Transitions = append(m.res.Transitions, Transition{Slave: s, From: from, To: st, At: time.Now()})
	}
	m.mu.Unlock()
	if st != from {
		m.logf("heartbeat: slave %d %s -> %s", s, from, st)
	}
}

// heartbeat is the monitoring thread ("Wait X seconds" in Fig 3): it
// polls every live slave's state each interval, recording transitions,
// until stop closes. The plain master's monitor (stop is nil) is also the
// job's control: it returns once every slave reports finished, fails the
// job on a slave that does not answer, and tells the slaves to abort when
// the time limit passes or the job is interrupted.
func (m *master) heartbeat(stop <-chan struct{}) error {
	deadline := time.Time{}
	if m.opts.Cfg.TimeLimit > 0 {
		deadline = m.started.Add(m.opts.Cfg.TimeLimit)
	}
	aborted := false
	for {
		allFinished := true
		for _, s := range m.liveRanks() {
			select {
			case <-stop:
				return nil
			default:
			}
			st, err := m.probe(s)
			if err != nil {
				if !m.tolerant {
					return fmt.Errorf("slave %d unresponsive: %w", s, err)
				}
				m.logf("heartbeat: slave %d unresponsive", s)
				continue
			}
			m.opts.Metrics.Heartbeats.Inc()
			m.observeState(s, st)
			allFinished = allFinished && st == StateFinished
		}
		if !m.tolerant {
			if allFinished {
				return nil
			}
			if !aborted && (interrupted(m.opts.Interrupt) || (!deadline.IsZero() && time.Now().After(deadline))) {
				aborted = true
				m.logf("heartbeat: %s, sending abort to all slaves", m.abortReason())
				for s := 1; s <= m.nSlaves; s++ {
					if err := m.comm.Send(s, tagAbort, nil); err != nil {
						return err
					}
				}
			}
		}
		select {
		case <-stop:
			return nil
		case <-time.After(m.opts.HeartbeatInterval):
		}
	}
}

// probe is one heartbeat round trip: an empty status message out, the
// slave's state byte back.
func (m *master) probe(s int) (SlaveState, error) {
	if err := m.comm.Send(s, tagStatus, nil); err != nil {
		return 0, err
	}
	msg, err := m.comm.RecvTimeout(s, tagStatus, m.opts.HeartbeatTimeout)
	if err != nil {
		return 0, err
	}
	if len(msg.Data) == 0 {
		return 0, fmt.Errorf("empty status reply")
	}
	return SlaveState(msg.Data[0]), nil
}

// abortReason names what cut the job short, for the event log.
func (m *master) abortReason() string {
	if interrupted(m.opts.Interrupt) {
		return "interrupted"
	}
	return "time limit exceeded"
}

// collect gathers the final reports from every live slave into
// res.Reports (one per cell) and sums the slaves' profiles. A slave that
// answers with nothing is still finalising, or never saw the end of
// training: resend repeats that signal before the next attempt. Cells
// still unreported afterwards are synthesized from the inventory — the
// merged view holds their last full state — or, in the plain mode that
// keeps none, fail the job.
func (m *master) collect(resend func(s int)) error {
	res, nCells := m.res, m.nCells
	var prof telemetry.Profile
	res.Reports = make([]SlaveReport, nCells)
	got := make([]bool, nCells)
	for _, s := range m.liveRanks() {
		backoff := 20 * time.Millisecond
		collected := false
		for attempt := 0; attempt < 3*m.opts.MaxStrikes && !collected; attempt++ {
			if err := m.comm.Send(s, tagCollect, nil); err != nil {
				break
			}
			msg, err := m.comm.RecvTimeout(s, tagResult, m.opts.RoundTimeout)
			if err != nil || len(msg.Data) == 0 {
				resend(s)
				time.Sleep(backoff)
				if backoff < 500*time.Millisecond {
					backoff *= 2
				}
				continue
			}
			var sr slaveReports
			if m.tolerant {
				sr, err = parseSlaveReports(msg.Data)
			} else {
				var rep SlaveReport
				rep, err = parseSlaveReport(msg.Data)
				sr = slaveReports{Reports: []SlaveReport{rep}, Profile: rep.Profile}
			}
			if err != nil {
				m.logf("master: bad report from slave %d: %v", s, err)
				break
			}
			prof.Merge(sr.Profile)
			for _, rep := range sr.Reports {
				if rep.CellRank < 0 || rep.CellRank >= nCells || got[rep.CellRank] {
					m.logf("master: ignoring report for cell %d from slave %d", rep.CellRank, s)
					continue
				}
				res.Reports[rep.CellRank] = rep
				got[rep.CellRank] = true
				res.Aborted = res.Aborted || rep.Aborted
			}
			// A slave only reports once its execution thread is over.
			m.observeState(s, StateFinished)
			collected = true
		}
		if !collected {
			m.logf("master: slave %d never delivered its reports", s)
		}
	}
	res.Profile = prof.Snapshot()

	for c := 0; c < nCells; c++ {
		if got[c] {
			continue
		}
		if m.track == nil {
			return fmt.Errorf("cluster: no report for cell %d", c)
		}
		t := m.track[c]
		rep := SlaveReport{
			CellRank: c, Node: "recovered", Iterations: t.iter,
			MixtureFitness: t.fitness, State: t.exchangeState(), Full: t.full,
			Error: fmt.Sprintf("report synthesized from master state (owner slave %d lost); %s", t.owner, t.errNote),
		}
		if t.failed || t.iter == 0 {
			rep.MixtureFitness = inf()
		}
		if f, ferr := core.UnmarshalFullState(t.full); ferr == nil {
			rep.MixtureRanks = append([]int(nil), f.MixtureRanks...)
			rep.MixtureWeights = append([]float64(nil), f.MixtureWeights...)
		}
		res.Reports[c] = rep
		m.logf("master: synthesized report for cell %d at iteration %d", c, t.iter)
	}
	return nil
}

// SplitLocal derives the LOCAL communicator of §III-D from the WORLD
// communicator: the sub-communicator of all slaves, used for the
// per-iteration neighbour exchange without involving the master. Every rank of
// comm must call it; the master (rank 0) receives nil.
func SplitLocal(comm *mpi.Comm) (*mpi.Comm, error) {
	color := 0
	if comm.Rank() == 0 {
		color = -1
	}
	return comm.Split(color, comm.Rank())
}
