package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/telemetry"
)

// Control-message tags on the WORLD communicator (master rank 0 ↔ slaves).
const (
	// tagNodeName: slave → master, the slave's (simulated) host name.
	tagNodeName = 100
	// tagRunTask: master → slave, the runTask payload; flips the slave
	// from inactive to processing (Fig 2).
	tagRunTask = 101
	// tagStatus: the plain master's heartbeat round trip — an empty probe
	// out, the slave's main thread answers with its current state byte.
	tagStatus = 102
	// tagAbort: master → slave, cooperative stop (time limit exceeded).
	tagAbort = 103
	// tagCollect: master → slave, request the final report; the plain
	// master sends it as soon as the slave's status reads finished.
	tagCollect = 104
	// tagResult: slave → master, the final report: a stateUpdate of every
	// cell the slave owns at the end, with its profile.
	tagResult = 105
	// tagShutdown: master → slave, terminate the main loop.
	tagShutdown = 106
	// tagStateUpdate: slave → master (tolerant modes), a stateUpdate
	// carrying the full training state of every owned cell.
	tagStateUpdate = 107
	// tagJoin: slave → master (async mode), a connected-but-idle slave
	// asks to join the running job and receive rebalanced cells.
	tagJoin = 110
	// tagOwnerUpdate: master → slave (async mode), the ownerUpdate with
	// the current cell→owner map, adoption orders and seed states. The
	// join grant, the rebalance broadcast and the done signal are all
	// instances of this one message.
	tagOwnerUpdate = 111
	// tagRelease: master → slave (async mode), order the slave to stop
	// training the listed cells and return their state (a rebalance is
	// the inverse of an eviction: cells move toward a joiner, not away
	// from a corpse).
	tagRelease = 112
	// tagReleaseAck: slave → master (async mode), the released cells'
	// final state as a stateUpdate payload.
	tagReleaseAck = 113
	// tagAsyncState: slave ↔ slave (async mode), a cell's center snapshot
	// pushed directly to the owners of its influence set — the cluster
	// form of core.RunAsync's exchange, with no master round-trip.
	tagAsyncState = 114
	// tagStateAck: master → slave (evict policy), the stateAck naming the
	// version the master now holds of each uploaded cell; a cell pushes a
	// version only once it is acknowledged.
	tagStateAck = 115
)

// maxProtocolCells bounds every cell list a protocol message may carry —
// generously above the largest supported grid (64×64), small enough that
// a hostile or corrupted payload cannot balloon the master's state.
const maxProtocolCells = 4096

// checkCells is the bound every decoded cell list passes through: at most
// maxProtocolCells entries, each a rank some supported grid could have.
// rank extracts entry i's cell rank.
func checkCells(what string, n int, rank func(i int) int) error {
	if n > maxProtocolCells {
		return fmt.Errorf("cluster: %s lists %d cells (max %d)", what, n, maxProtocolCells)
	}
	for i := 0; i < n; i++ {
		if c := rank(i); c < 0 || c >= maxProtocolCells {
			return fmt.Errorf("cluster: %s names cell %d, out of range [0,%d)", what, c, maxProtocolCells)
		}
	}
	return nil
}

// SlaveState is the state machine of Fig 2.
type SlaveState byte

// Slave states and their transitions: inactive → processing on run task,
// processing → finished after the last training iteration.
const (
	StateInactive SlaveState = iota
	StateProcessing
	StateFinished
)

// String renders the state name.
func (s SlaveState) String() string {
	switch s {
	case StateInactive:
		return "inactive"
	case StateProcessing:
		return "processing"
	case StateFinished:
		return "finished"
	default:
		return fmt.Sprintf("state(%d)", byte(s))
	}
}

// runTask is the workload assignment a slave receives from the master.
type runTask struct {
	// Cfg is the full experiment configuration (Table I).
	Cfg config.Config `json:"cfg"`
	// CellRank is the grid cell this slave trains (slave i ↦ cell i-1).
	CellRank int `json:"cell_rank"`
	// Resilient selects the evict policy of the tolerant exchange: each
	// cell pushes a version only once the master holds it, so the master
	// can re-dispatch the cells of a slave that falls silent.
	Resilient bool `json:"resilient,omitempty"`
	// Async sets the tolerant exchange's staleness window to
	// Cfg.AsyncStaleness; without it the window is 1 (lockstep). Either
	// flag moves the slave off the LOCAL exchange onto direct pushes to
	// the owners of each cell's influence set (tagAsyncState).
	Async bool `json:"async,omitempty"`
	// Joiner marks a task granted to a mid-run joiner: CellRank is -1 and
	// the slave's initial cells arrive in the first ownerUpdate instead.
	Joiner bool `json:"joiner,omitempty"`
	// Full, when non-empty, is the marshalled core.FullState the slave
	// restores its cell from before training — the whole-job resume path.
	// Empty means a fresh start.
	Full []byte `json:"full,omitempty"`
}

func (r runTask) marshal() ([]byte, error) { return json.Marshal(r) }

func parseRunTask(data []byte) (runTask, error) {
	var r runTask
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("cluster: parsing run task: %w", err)
	}
	if err := r.Cfg.Validate(); err != nil {
		return r, err
	}
	// A joiner has no cell yet (-1); every other task names one of the grid.
	if joiner := r.CellRank == -1 && r.Joiner; !joiner && (r.CellRank < 0 || r.CellRank >= r.Cfg.NumCells()) {
		return r, fmt.Errorf("cluster: run task for cell %d of a %d-cell grid", r.CellRank, r.Cfg.NumCells())
	}
	return r, nil
}

// SlaveReport is one cell's final result, as the master's inventory holds
// it once the slave that owns the cell has delivered its final report.
type SlaveReport struct {
	// CellRank is the grid cell the slave trained.
	CellRank int `json:"cell_rank"`
	// Node is the owning slave's placement, for log correlation.
	Node string `json:"node"`
	// Iterations completed (may be short of the target when aborted).
	Iterations int `json:"iterations"`
	// Aborted reports whether the cell halted short of the target at an
	// abort's halt boundary.
	Aborted bool `json:"aborted"`
	// MixtureFitness is the final mixture fitness (lower = better).
	MixtureFitness float64 `json:"mixture_fitness"`
	// MixtureRanks and MixtureWeights describe the returned mixture.
	MixtureRanks   []int     `json:"mixture_ranks"`
	MixtureWeights []float64 `json:"mixture_weights"`
	// Full is the marshalled core.FullState of the cell at the end of
	// training: the bit-exact resume state used by the golden determinism
	// checks and checkpoint export.
	Full []byte `json:"full,omitempty"`
	// Error is non-empty when the slave's training failed; the control
	// protocol still completes so the master can collect and shut down.
	Error string `json:"error,omitempty"`
}

// cellBlob carries one cell's complete training state (a marshalled
// core.FullState) and standing between slave and master. It is the unit
// of the state upload, the final report, the master's inventory and the
// adoption order that moves a cell to a new owner.
type cellBlob struct {
	CellRank  int `json:"cell_rank"`
	Iteration int `json:"iteration"`
	// Full is the marshalled core.FullState; nil in an adoption order
	// means "start the cell from scratch" (no state was ever gathered).
	Full []byte `json:"full,omitempty"`
	// Failed marks a cell whose training errored; the master stops
	// scheduling iterations for it.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Halted marks a cell stopped at the abort's halt boundary; like a
	// finished one, it owes no more iterations.
	Halted bool `json:"halted,omitempty"`
	// Fitness is the cell's current mixture fitness (inf() until the
	// first iteration completes).
	Fitness float64 `json:"fitness"`
	// MixtureRanks and MixtureWeights are Full's mixture, so a report
	// needs no decode.
	MixtureRanks   []int     `json:"mixture_ranks,omitempty"`
	MixtureWeights []float64 `json:"mixture_weights,omitempty"`
}

// stateUpdate is a tolerant slave's upload: the full state of every cell
// it owns. A release ack is one too, echoing the order's version in Round,
// and so is every slave's final report (tagResult), which adds the
// slave's routine totals once, whatever its cell count: none after a join
// moved its cells away.
type stateUpdate struct {
	Round   int                              `json:"round"`
	Cells   []cellBlob                       `json:"cells"`
	Profile map[string]telemetry.RoutineStat `json:"profile,omitempty"`
}

func (u stateUpdate) marshal() ([]byte, error) { return json.Marshal(u) }

func parseStateUpdate(data []byte) (stateUpdate, error) {
	var u stateUpdate
	if err := json.Unmarshal(data, &u); err != nil {
		return u, fmt.Errorf("cluster: parsing state update: %w", err)
	}
	for _, b := range u.Cells {
		if b.Iteration < 0 {
			return u, fmt.Errorf("cluster: state update has cell %d at negative iteration %d", b.CellRank, b.Iteration)
		}
	}
	return u, checkCells("state update", len(u.Cells), func(i int) int { return u.Cells[i].CellRank })
}

// cellIter names one version of one cell.
type cellIter struct {
	Cell int `json:"cell"`
	Iter int `json:"iter"`
}

// stateAck is the master's answer to an upload under the evict policy:
// the iteration it now holds of each uploaded cell the sender owns.
type stateAck struct {
	Held []cellIter `json:"held"`
}

func (a stateAck) marshal() ([]byte, error) { return json.Marshal(a) }

// parseStateAck decodes and validates a stateAck: a bounded list of
// in-range cells at non-negative iterations.
func parseStateAck(data []byte) (stateAck, error) {
	var a stateAck
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("cluster: parsing state ack: %w", err)
	}
	for _, h := range a.Held {
		if h.Iter < 0 {
			return a, fmt.Errorf("cluster: state ack holds cell %d at negative iteration %d", h.Cell, h.Iter)
		}
	}
	return a, checkCells("state ack", len(a.Held), func(i int) int { return a.Held[i].Cell })
}

// wireState is one cell's exchanged centers (a marshalled core.CellState),
// a seed snapshot inside an ownerUpdate.
type wireState struct {
	Rank int    `json:"rank"`
	Iter int    `json:"iter"`
	Data []byte `json:"data"`
}

// ownerUpdate is the master's asynchronous-mode control message: the
// authoritative cell→owner map plus whatever this particular update
// delivers — adoption orders for a joiner or rebalance target, seed
// snapshots to prime neighbour views, failed-cell marks that lift the
// staleness gate, or the done flag that ends training. One message type
// with one validating parser keeps the decoder surface small enough to
// fuzz exhaustively.
type ownerUpdate struct {
	// Version orders updates; a slave ignores any update older than the
	// newest it has applied (resends and reordered deliveries are
	// expected under chaos).
	Version int `json:"version"`
	// Owners maps cell rank → owning slave world rank (0 = unassigned).
	Owners []int `json:"owners"`
	// Failed lists cells whose training errored; peers stop gating on
	// them.
	Failed []int `json:"failed,omitempty"`
	// Adopt lists cells the receiving slave must take over, restoring
	// the embedded full state.
	Adopt []cellBlob `json:"adopt,omitempty"`
	// States seeds neighbour views (a joiner starts mid-run and cannot
	// wait for organic pushes to cover the whole neighbourhood): every
	// cell's held center, plus the one before it for each cell that moves.
	States []wireState `json:"states,omitempty"`
	// Done ends training.
	Done bool `json:"done,omitempty"`
}

func (u ownerUpdate) marshal() ([]byte, error) { return json.Marshal(u) }

// parseOwnerUpdate decodes and validates an ownerUpdate. Every accepted
// message satisfies: non-negative version, bounded cell lists, every cell
// rank within the owner map, and no duplicate adoption orders — the
// invariants the async slave loop relies on without re-checking.
func parseOwnerUpdate(data []byte) (ownerUpdate, error) {
	var u ownerUpdate
	if err := json.Unmarshal(data, &u); err != nil {
		return u, fmt.Errorf("cluster: parsing owner update: %w", err)
	}
	if u.Version < 0 {
		return u, fmt.Errorf("cluster: owner update with negative version %d", u.Version)
	}
	n := len(u.Owners)
	if n == 0 || n > maxProtocolCells {
		return u, fmt.Errorf("cluster: owner update with %d cells (want 1..%d)", n, maxProtocolCells)
	}
	for c, o := range u.Owners {
		if o < 0 {
			return u, fmt.Errorf("cluster: cell %d has negative owner %d", c, o)
		}
	}
	if len(u.Failed) > n || len(u.Adopt) > n || len(u.States) > 2*n {
		return u, fmt.Errorf("cluster: owner update lists exceed %d cells", n)
	}
	for _, c := range u.Failed {
		if c < 0 || c >= n {
			return u, fmt.Errorf("cluster: failed cell %d out of range [0,%d)", c, n)
		}
	}
	seen := make(map[int]bool, len(u.Adopt))
	for _, ad := range u.Adopt {
		if ad.CellRank < 0 || ad.CellRank >= n {
			return u, fmt.Errorf("cluster: adopt cell %d out of range [0,%d)", ad.CellRank, n)
		}
		if seen[ad.CellRank] {
			return u, fmt.Errorf("cluster: duplicate adopt order for cell %d", ad.CellRank)
		}
		seen[ad.CellRank] = true
		if ad.Iteration < 0 {
			return u, fmt.Errorf("cluster: adopt cell %d with negative iteration %d", ad.CellRank, ad.Iteration)
		}
	}
	for _, ws := range u.States {
		if ws.Rank < 0 || ws.Rank >= n {
			return u, fmt.Errorf("cluster: seed state for cell %d out of range [0,%d)", ws.Rank, n)
		}
	}
	return u, nil
}

// releaseOrder tells a slave to stop training the listed cells and return
// their state (tagReleaseAck); the cells are moving to another owner.
type releaseOrder struct {
	Version int   `json:"version"`
	Cells   []int `json:"cells"`
}

func (r releaseOrder) marshal() ([]byte, error) { return json.Marshal(r) }

// parseReleaseOrder decodes and validates a releaseOrder: non-negative
// version, a bounded, duplicate-free, non-negative cell list.
func parseReleaseOrder(data []byte) (releaseOrder, error) {
	var r releaseOrder
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("cluster: parsing release order: %w", err)
	}
	if r.Version < 0 {
		return r, fmt.Errorf("cluster: release order with negative version %d", r.Version)
	}
	if len(r.Cells) == 0 || len(r.Cells) > maxProtocolCells {
		return r, fmt.Errorf("cluster: release order with %d cells (want 1..%d)", len(r.Cells), maxProtocolCells)
	}
	seen := make(map[int]bool, len(r.Cells))
	for _, c := range r.Cells {
		if c < 0 || c >= maxProtocolCells {
			return r, fmt.Errorf("cluster: release of cell %d out of range [0,%d)", c, maxProtocolCells)
		}
		if seen[c] {
			return r, fmt.Errorf("cluster: duplicate release of cell %d", c)
		}
		seen[c] = true
	}
	return r, nil
}

// Transition is one observed slave state change, the raw material of the
// Fig 2 state diagram.
type Transition struct {
	Slave int
	From  SlaveState
	To    SlaveState
	At    time.Time
}

// JobResult is the master's aggregate outcome of one training job.
type JobResult struct {
	// Reports holds one report per slave, ordered by cell rank.
	Reports []SlaveReport
	// BestCell is the grid rank whose mixture fitness is lowest.
	BestCell int
	// Aborted reports whether the job hit its time limit.
	Aborted bool
	// Elapsed is the wall-clock duration of the job.
	Elapsed time.Duration
	// Transitions is the observed slave state-machine trace.
	Transitions []Transition
	// Placements is the task → node/core assignment used.
	Placements []Placement
	// Profile is the routine totals summed over the reporting slaves.
	Profile map[string]telemetry.RoutineStat
	// Log is the master's event log (the Fig 3 flow trace).
	Log []string
}

// Best returns the report of the winning cell.
func (j *JobResult) Best() SlaveReport {
	for _, r := range j.Reports {
		if r.CellRank == j.BestCell {
			return r
		}
	}
	return SlaveReport{}
}

// FullStates decodes every report's full training state in cell-rank
// order — the raw material of a final whole-job checkpoint. It fails if
// any cell's report lacks a full state (a pre-PR-9 plain run, or a cell
// lost before its first state was ever gathered).
func (j *JobResult) FullStates() ([]*core.FullState, error) {
	out := make([]*core.FullState, len(j.Reports))
	for _, rep := range j.Reports {
		if rep.CellRank < 0 || rep.CellRank >= len(out) {
			return nil, fmt.Errorf("cluster: report cell rank %d out of range [0,%d)", rep.CellRank, len(out))
		}
		if len(rep.Full) == 0 {
			return nil, fmt.Errorf("cluster: cell %d report carries no full state", rep.CellRank)
		}
		f, err := core.UnmarshalFullState(rep.Full)
		if err != nil {
			return nil, fmt.Errorf("cluster: decoding cell %d full state: %w", rep.CellRank, err)
		}
		out[rep.CellRank] = f
	}
	for c, f := range out {
		if f == nil {
			return nil, fmt.Errorf("cluster: no report for cell %d", c)
		}
	}
	return out, nil
}
