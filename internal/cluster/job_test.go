package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/telemetry"
)

// jobConfig is a fast 2×2-grid configuration (5 tasks).
func jobConfig() config.Config {
	return config.Default().Scaled(2, 8, 100)
}

func TestRunJobEndToEnd(t *testing.T) {
	cfg := jobConfig()
	res, err := RunJob(MasterOptions{Cfg: cfg, HeartbeatInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("job aborted unexpectedly")
	}
	if len(res.Reports) != cfg.NumCells() {
		t.Fatalf("reports %d", len(res.Reports))
	}
	for i, r := range res.Reports {
		if r.Error != "" {
			t.Fatalf("slave for cell %d failed: %s", i, r.Error)
		}
		if r.CellRank != i {
			t.Fatalf("report %d is for cell %d", i, r.CellRank)
		}
		if r.Iterations != cfg.Iterations {
			t.Fatalf("cell %d ran %d iterations", i, r.Iterations)
		}
		center, _ := centerOf(r.Full)
		if len(center) == 0 {
			t.Fatalf("cell %d missing state", i)
		}
		if _, err := core.UnmarshalCellState(center); err != nil {
			t.Fatalf("cell %d state corrupt: %v", i, err)
		}
		if len(r.MixtureRanks) == 0 || len(r.MixtureRanks) != len(r.MixtureWeights) {
			t.Fatalf("cell %d mixture %v/%v", i, r.MixtureRanks, r.MixtureWeights)
		}
	}
	// Best cell must be the minimum mixture fitness.
	for _, r := range res.Reports {
		if r.MixtureFitness < res.Best().MixtureFitness {
			t.Fatal("BestCell is not minimal")
		}
	}
	// The merged profile must include all four routines of Table IV.
	for _, routine := range []telemetry.Routine{telemetry.RoutineTrain, telemetry.RoutineMutate,
		telemetry.RoutineUpdateGenomes, telemetry.RoutineGather} {
		if res.Profile[routine.String()].Count == 0 {
			t.Fatalf("merged profile missing %q", routine)
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if len(res.Placements) != cfg.NumTasks() {
		t.Fatalf("placements %d", len(res.Placements))
	}
}

// jobModes runs a test once per exchange mode: the stages around the
// mode-specific middle are one skeleton, and the tolerant modes share one
// middle, so what they promise must hold for all of them. setup, when
// non-nil, adjusts each mode's options before its run.
func jobModes(t *testing.T, setup func(*MasterOptions), test func(t *testing.T, cfg config.Config, res *JobResult)) {
	for _, mode := range []struct {
		name string
		opts MasterOptions
	}{
		{"plain", MasterOptions{}},
		{"resilient", MasterOptions{Resilient: true}},
		{"async", MasterOptions{Async: true}},
		{"async+resilient", MasterOptions{Async: true, Resilient: true}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			mode.opts.Cfg = jobConfig()
			mode.opts.HeartbeatInterval = time.Millisecond
			if setup != nil {
				setup(&mode.opts)
			}
			res, err := RunJob(mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			test(t, mode.opts.Cfg, res)
		})
	}
}

// requireOneHalt asserts an aborted job: every cell stopped short of the
// target, all at one iteration.
func requireOneHalt(t *testing.T, cfg config.Config, res *JobResult) {
	t.Helper()
	if !res.Aborted {
		t.Fatal("job did not abort")
	}
	for _, r := range res.Reports {
		if r.Iterations >= cfg.Iterations {
			t.Fatalf("cell %d completed all iterations despite abort", r.CellRank)
		}
		if r.Iterations != res.Reports[0].Iterations {
			t.Fatalf("abort left cells at iterations %d and %d", res.Reports[0].Iterations, r.Iterations)
		}
	}
}

// trainCount is the merged number of Cell.Iterate calls a job profiled.
func trainCount(res *JobResult) int64 {
	return res.Profile[telemetry.RoutineTrain.String()].Count
}

// TestJobProfileCountsEachIterateOnce: without faults every cell trains
// from scratch exactly once per iteration, so the merged train count is
// Σ report Iterations — in every mode, and across a join, whose rebalance
// leaves the slave it took a cell from with no report to carry its totals.
func TestJobProfileCountsEachIterateOnce(t *testing.T) {
	requireOnce := func(t *testing.T, _ config.Config, res *JobResult) {
		var iterates int64
		for _, r := range res.Reports {
			iterates += int64(r.Iterations)
		}
		if got := trainCount(res); got != iterates {
			t.Fatalf("merged train count %d for %d Iterate calls", got, iterates)
		}
	}
	jobModes(t, nil, requireOnce)
	t.Run("joiner", func(t *testing.T) {
		cfg := asyncConfig(2, 2, 6)
		requireOnce(t, cfg, runAsyncJoinJob(t, asyncOptions(cfg), nil))
	})
}

// TestJobRecordsStateTransitions: the master records each slave's Fig 2
// path. A tolerant master sees every hop — a slave's first upload shows
// it processing, its delivered report finished — so each slave goes
// inactive → processing → finished. The plain heartbeat can miss the first
// hop when its first probe lands after training started, but finished is
// always seen: the heartbeat loop only exits on it.
func TestJobRecordsStateTransitions(t *testing.T) {
	jobModes(t, nil, func(t *testing.T, cfg config.Config, res *JobResult) {
		path := map[int][]SlaveState{}
		for _, tr := range res.Transitions {
			if tr.From == tr.To {
				t.Fatalf("degenerate transition %+v", tr)
			}
			if len(path[tr.Slave]) == 0 {
				path[tr.Slave] = []SlaveState{tr.From}
			}
			path[tr.Slave] = append(path[tr.Slave], tr.To)
		}
		tolerant := !strings.HasSuffix(t.Name(), "/plain")
		for s := 1; s <= cfg.NumCells(); s++ {
			p := path[s]
			if len(p) == 0 || p[len(p)-1] != StateFinished {
				t.Fatalf("slave %d never observed finished; transitions: %+v", s, res.Transitions)
			}
			if want := []SlaveState{StateInactive, StateProcessing, StateFinished}; tolerant && !slices.Equal(p, want) {
				t.Fatalf("slave %d went %v, want %v", s, p, want)
			}
		}
	})
}

func TestJobEventLogTellsFig3Story(t *testing.T) {
	jobModes(t, nil, func(t *testing.T, cfg config.Config, res *JobResult) {
		log := strings.Join(res.Log, "\n")
		for _, want := range []string{"gathered", "placed", "run task", "collecting results", "best cell"} {
			if !strings.Contains(log, want) {
				t.Fatalf("event log missing %q:\n%s", want, log)
			}
		}
	})
}

// TestJobTimeLimitAborts: in every mode the time limit stops all cells at
// one iteration — the halt iteration rides the exchange's pushes.
func TestJobTimeLimitAborts(t *testing.T) {
	jobModes(t, func(o *MasterOptions) {
		o.Cfg.Iterations = 10000 // would take far longer than the limit
		o.Cfg.TimeLimit = 50 * time.Millisecond
	}, requireOneHalt)
}

// TestJobTimeLimitEndsWithCrashedSlave: a tolerant job whose slave has
// crashed still ends on its time limit. Under the evict policy the dead
// slave is evicted and every cell stops at one iteration; without it the
// master gives up once no cell advances, and synthesizes the lost cell's
// report. Once training is done nothing waits on the dead slave beyond
// collection's own retries, however long a status reply may take.
func TestJobTimeLimitEndsWithCrashedSlave(t *testing.T) {
	for _, mode := range []struct {
		name             string
		async, resilient bool
	}{{"async", true, false}, {"resilient", false, true}, {"async+resilient", true, true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			opts := asyncOptions(jobConfig())
			opts.Async, opts.Resilient = mode.async, mode.resilient
			if !mode.resilient {
				opts.MaxStrikes = 1 // bounds both the stall and collection's retries
			}
			opts.Cfg.Iterations = 10000 // would take far longer than the limit
			opts.Cfg.TimeLimit = time.Second
			opts.HeartbeatTimeout = time.Minute
			var trained time.Time // when the master logged "training done"
			opts.Logf = func(format string, args ...interface{}) {
				if strings.Contains(fmt.Sprintf(format, args...), "training done") {
					trained = time.Now()
				}
			}
			plan := mpi.FaultPlan{Crashes: []mpi.CrashPoint{{Rank: 2, Tag: tagStateUpdate, AfterSends: 2}}}
			var res *JobResult
			var err error
			var returned time.Time
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, err = RunJobChaos(opts, plan)
				returned = time.Now()
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("job never ended after its time limit")
			}
			if err != nil {
				t.Fatal(err)
			}
			log := strings.Join(res.Log, "\n")
			// Collection's 3·MaxStrikes attempts at the dead slave, and two
			// round timeouts (2 s natively) for the live slaves' reports.
			budget := time.Duration(3*opts.MaxStrikes+2) * opts.RoundTimeout
			tail := returned.Sub(trained)
			if trained.IsZero() || tail > budget {
				t.Fatalf("job ended %v after training was done, want within collection's %v; log:\n%s", tail, budget, log)
			}
			t.Logf("job ended %v after training was done", tail.Round(time.Millisecond))
			if !mode.resilient {
				if !res.Aborted {
					t.Fatal("job did not abort")
				}
				if !strings.Contains(res.Reports[1].Error, "synthesized") {
					t.Fatalf("crashed cell 1 not synthesized (error %q); log:\n%s", res.Reports[1].Error, log)
				}
				requireMixtureOfFull(t, res)
				return
			}
			requireOneHalt(t, opts.Cfg, res)
			if !strings.Contains(log, "evicting slave 2") {
				t.Fatalf("master never evicted the crashed slave; log:\n%s", log)
			}
			for i, r := range res.Reports {
				if strings.Contains(r.Error, "synthesized") {
					t.Fatalf("cell %d was lost (synthesized report: %s)", i, r.Error)
				}
			}
		})
	}
}

func TestRunMasterValidation(t *testing.T) {
	w := mpi.MustWorld(2)
	defer w.Close()
	c1 := w.MustComm(1)
	if _, err := RunMaster(c1, MasterOptions{Cfg: jobConfig()}); err == nil {
		t.Fatal("master on rank 1 accepted")
	}
	c0 := w.MustComm(0)
	if _, err := RunMaster(c0, MasterOptions{Cfg: jobConfig()}); err == nil {
		t.Fatal("wrong world size accepted") // 2×2 grid needs 5 ranks
	}
	bad := jobConfig()
	bad.BatchSize = 0
	if _, err := RunMaster(c0, MasterOptions{Cfg: bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunSlaveValidation(t *testing.T) {
	w := mpi.MustWorld(2)
	defer w.Close()
	if err := RunSlave(w.MustComm(0), nil); err == nil {
		t.Fatal("slave on rank 0 accepted")
	}
	if err := RunSlave(w.MustComm(1), nil); err == nil {
		t.Fatal("nil local communicator accepted")
	}
}

func TestRunJobRejectsInvalidConfig(t *testing.T) {
	bad := jobConfig()
	bad.Iterations = -1
	if _, err := RunJob(MasterOptions{Cfg: bad}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSlaveStateString(t *testing.T) {
	for st, want := range map[SlaveState]string{
		StateInactive:   "inactive",
		StateProcessing: "processing",
		StateFinished:   "finished",
		SlaveState(9):   "state(9)",
	} {
		if st.String() != want {
			t.Fatalf("%d -> %q want %q", st, st.String(), want)
		}
	}
}

func TestJobOverTCPTransport(t *testing.T) {
	// The same master/slave code over real sockets: 5 TCP nodes on
	// loopback running a tiny 2×2 job.
	if testing.Short() {
		t.Skip("TCP job in -short mode")
	}
	cfg := jobConfig()
	cfg.Iterations = 1
	n := cfg.NumTasks()
	nodes := make([]*mpi.TCPNode, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		node, err := mpi.ListenTCP(r, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[r] = node
		addrs[r] = node.Addr()
		defer node.Close()
	}
	type out struct {
		res *JobResult
		err error
	}
	results := make(chan out, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			results <- func() out {
				if err := nodes[rank].Connect(addrs, 10*time.Second); err != nil {
					return out{err: err}
				}
				comm, err := nodes[rank].WorldComm()
				if err != nil {
					return out{err: err}
				}
				local, err := SplitLocal(comm)
				if err != nil {
					return out{err: err}
				}
				if rank == 0 {
					res, err := RunMaster(comm, MasterOptions{Cfg: cfg, HeartbeatInterval: 5 * time.Millisecond})
					return out{res: res, err: err}
				}
				return out{err: RunSlave(comm, local)}
			}()
		}(r)
	}
	var res *JobResult
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res != nil {
			res = o.res
		}
	}
	if res == nil || len(res.Reports) != cfg.NumCells() {
		t.Fatalf("TCP job result %+v", res)
	}
	for _, r := range res.Reports {
		if r.Error != "" {
			t.Fatalf("cell %d: %s", r.CellRank, r.Error)
		}
	}
}
