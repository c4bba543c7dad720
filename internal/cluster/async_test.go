package cluster

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/mpi"
)

// asyncConfig is a fast async-mode configuration for a rows×cols grid.
func asyncConfig(rows, cols, iterations int) config.Config {
	cfg := config.Default().Scaled(iterations, 4, 64)
	cfg.GridRows = rows
	cfg.GridCols = cols
	return cfg
}

func asyncOptions(cfg config.Config) MasterOptions {
	opts := MasterOptions{
		Cfg:   cfg,
		Async: true,
		// The stall nudge must stay above a few training iterations even
		// on a loaded machine, or it fires spuriously (harmless, but it
		// pollutes the log assertions).
		RoundTimeout:      time.Second,
		MaxStrikes:        3,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	if raceEnabled {
		opts.RoundTimeout = 3 * time.Second
		opts.HeartbeatInterval = 50 * time.Millisecond
		opts.HeartbeatTimeout = 10 * time.Second
	}
	return opts
}

func clearAsyncHooks() {
	asyncClusterHooks.onPush = nil
	asyncClusterHooks.onApply = nil
}

func TestAsyncJobNoFaults(t *testing.T) {
	cfg := asyncConfig(2, 2, 3)
	res, err := RunJob(asyncOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	requireAllTrained(t, cfg, res)
	for i, r := range res.Reports {
		if r.Error != "" {
			t.Fatalf("cell %d failed: %s", i, r.Error)
		}
		if len(r.Full) == 0 {
			t.Fatalf("cell %d report lacks full state", i)
		}
	}
}

// TestAsyncChaosPartitionNoStall drives the async runtime through fault
// schedules whose partition windows black out the peer-to-peer exchange
// streams for a while: the staleness gate must wait the partition out
// (the idle re-push heals the neighbour views once the window closes),
// never stall the job, and every cell must still reach the target.
func TestAsyncChaosPartitionNoStall(t *testing.T) {
	cases := []struct {
		name string
		plan mpi.FaultPlan
	}{
		{name: "drop", plan: AsyncChaosPlan(201, 0.3, 0, 0)},
		{name: "dup-delay", plan: AsyncChaosPlan(202, 0, 0.4, 0.4)},
		{name: "combo", plan: AsyncChaosPlan(203, 0.2, 0.25, 0.3)},
		{
			name: "partition",
			plan: func() mpi.FaultPlan {
				p := AsyncChaosPlan(204, 0.15, 0, 0.2)
				// Black out both directions of the 1↔2 exchange and the
				// 3→4 pushes for a stretch of each stream.
				p.Partitions = []mpi.Partition{
					{From: 1, To: 2, Tag: tagAsyncState, FromSeq: 1, ToSeq: 5},
					{From: 2, To: 1, Tag: tagAsyncState, FromSeq: 1, ToSeq: 5},
					{From: 3, To: 4, Tag: tagAsyncState, FromSeq: 2, ToSeq: 6},
				}
				return p
			}(),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := asyncConfig(2, 2, 3)
			res, err := RunJobChaos(asyncOptions(cfg), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			requireAllTrained(t, cfg, res)
		})
	}
}

// TestAsyncJoinRebalance is the elastic-membership acceptance scenario
// without faults: a reserve slave joins once training is underway; the
// master must recall cells from the loaded owners, grant them to the
// joiner, and finish with all cells trained — none lost, and the joiner
// actually owning rebalanced cells.
func TestAsyncJoinRebalance(t *testing.T) {
	cfg := asyncConfig(2, 2, 6)
	runAsyncJoinJob(t, cfg, nil)
}

// TestAsyncJoinUnderChaos repeats the join scenario with drops, dups and
// delays on the exchange streams: the membership protocol must still
// hand the joiner its cells and the job must complete with zero lost
// cells.
func TestAsyncJoinUnderChaos(t *testing.T) {
	cfg := asyncConfig(2, 2, 6)
	plan := AsyncChaosPlan(205, 0.2, 0.2, 0.25)
	runAsyncJoinJob(t, cfg, &plan)
}

// runAsyncJoinJob runs a 1-reserve async job whose joiner is triggered by
// the first training pass, asserts the join actually rebalanced and
// returns the job's result.
func runAsyncJoinJob(t *testing.T, cfg config.Config, plan *mpi.FaultPlan) *JobResult {
	t.Helper()
	defer clearAsyncHooks()
	joinCh := make(chan struct{})
	var once sync.Once
	asyncClusterHooks.onPush = func(cell, iter int) {
		if iter >= 1 {
			once.Do(func() { close(joinCh) })
		}
	}
	res, err := RunJobWithJoiners(asyncOptions(cfg), plan, []JoinSpec{{Signal: joinCh}})
	if err != nil {
		t.Fatal(err)
	}
	requireAllTrained(t, cfg, res)

	joiner := cfg.NumTasks() // the reserve's world rank
	log := strings.Join(res.Log, "\n")
	if !strings.Contains(log, "joining, rebalancing") {
		t.Fatalf("master never served the join; log:\n%s", log)
	}
	rebalanced := 0
	for _, line := range res.Log {
		if strings.Contains(line, "rebalanced cell") {
			rebalanced++
		}
	}
	if rebalanced == 0 {
		t.Fatalf("joiner %d received no cells; log:\n%s", joiner, log)
	}
	for i, r := range res.Reports {
		if strings.Contains(r.Error, "synthesized") {
			t.Fatalf("cell %d was lost (synthesized report: %s)", i, r.Error)
		}
	}
	return res
}

// TestAsyncChaosFitnessTolerance verifies chaos does not wreck training:
// the best mixture fitness of an async chaos run stays finite and within
// tolerance of the fault-free async run. Async training is scheduling-
// nondeterministic, so this is a sanity band, not a bit-exactness check.
func TestAsyncChaosFitnessTolerance(t *testing.T) {
	cfg := asyncConfig(2, 2, 3)
	clean, err := RunJob(asyncOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := RunJobChaos(asyncOptions(cfg), AsyncChaosPlan(206, 0.2, 0.3, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := clean.Best().MixtureFitness, chaotic.Best().MixtureFitness
	if a >= inf() || b >= inf() {
		t.Fatalf("best fitness not finite: clean %v chaos %v", a, b)
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 2.5 {
		t.Fatalf("chaos fitness %v strayed %.3f from fault-free %v", b, diff, a)
	}
}

// TestAsyncClusterStalenessBound is the cluster form of the core
// staleness property: under the fault-free exchange no neighbour view
// ever regresses, every installed snapshot is within the window S of its
// source's newest push, and none is S or more versions ahead of the cell
// that installs it.
func TestAsyncClusterStalenessBound(t *testing.T) {
	defer clearAsyncHooks()
	cfg := asyncConfig(2, 2, 6)
	cfg.AsyncStaleness = 3
	s := cfg.AsyncStaleness

	type pair struct{ cell, src int }
	var mu sync.Mutex
	lastPush := make(map[int]int)
	applied := make(map[pair]int)
	type violation struct {
		rule                 string
		cell, src, iter, ref int
	}
	var bad []violation
	asyncClusterHooks.onPush = func(cell, iter int) {
		mu.Lock()
		if iter > lastPush[cell] {
			lastPush[cell] = iter
		}
		mu.Unlock()
	}
	asyncClusterHooks.onApply = func(cell, src, iter, at int) {
		mu.Lock()
		defer mu.Unlock()
		k := pair{cell, src}
		if prev, seen := applied[k]; seen && iter < prev {
			bad = append(bad, violation{"regressed below", cell, src, iter, prev})
		}
		if iter > applied[k] {
			applied[k] = iter
		}
		if pushed := lastPush[src]; pushed-iter > s {
			bad = append(bad, violation{"behind the source's push", cell, src, iter, pushed})
		}
		if iter-at >= s {
			bad = append(bad, violation{"ahead of the cell's iteration", cell, src, iter, at})
		}
	}
	res, err := RunJob(asyncOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	requireAllTrained(t, cfg, res)
	mu.Lock()
	defer mu.Unlock()
	if len(applied) == 0 {
		t.Fatal("no neighbour snapshots were applied")
	}
	if len(bad) > 0 {
		t.Fatalf("staleness bound S=%d violated %d times, first: %+v", s, len(bad), bad[0])
	}
}

// TestAsyncFinishedCellPushesBounded: once a cell has trained its last
// iteration its state never changes again, so after the push that
// announces it (and at most one idle re-push) a fault-free job has no
// reason to send it again.
func TestAsyncFinishedCellPushesBounded(t *testing.T) {
	defer clearAsyncHooks()
	cfg := asyncConfig(3, 3, 2)
	var finals atomic.Int64
	asyncClusterHooks.onPush = func(cell, iter int) {
		if iter == cfg.Iterations {
			finals.Add(1)
		}
	}
	res, err := RunJob(asyncOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	requireAllTrained(t, cfg, res)
	if got, limit := finals.Load(), int64(2*cfg.NumCells()); got > limit {
		t.Fatalf("finished cells pushed their final state %d times, want at most %d", got, limit)
	}
}
