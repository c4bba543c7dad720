package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cellgan/internal/config"
	"cellgan/internal/mpi"
)

// chaosConfig is a fast resilient-mode configuration for a rows×cols grid.
func chaosConfig(rows, cols int) config.Config {
	cfg := config.Default().Scaled(2, 4, 64)
	cfg.GridRows = rows
	cfg.GridCols = cols
	return cfg
}

func chaosOptions(cfg config.Config, maxStrikes int) MasterOptions {
	opts := MasterOptions{
		Cfg:       cfg,
		Resilient: true,
		// The round deadline must stay comfortably above one training
		// iteration even when other test packages load the machine, or
		// healthy slaves risk being struck out. Strikes are additionally
		// progress-gated (only a slave lagging its peers is struck) and
		// eviction is strike-count-based, so determinism is unaffected.
		RoundTimeout:      time.Second,
		MaxStrikes:        maxStrikes,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
	}
	if raceEnabled {
		// The race detector slows everything ~10×; widen accordingly.
		opts.RoundTimeout = 3 * time.Second
		opts.HeartbeatInterval = 50 * time.Millisecond
		opts.HeartbeatTimeout = 10 * time.Second
	}
	return opts
}

// fingerprint reduces a job result to its schedule-determined content:
// everything except wall-clock artifacts (profiles, timings, logs) and
// placement labels.
func fingerprint(t *testing.T, res *JobResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "best=%d aborted=%v\n", res.BestCell, res.Aborted)
	for _, r := range res.Reports {
		fmt.Fprintf(&b, "cell=%d iters=%d fit=%x ranks=%v weights=%v full=%x err=%v\n",
			r.CellRank, r.Iterations, r.MixtureFitness, r.MixtureRanks, r.MixtureWeights,
			r.Full, r.Error != "")
	}
	return b.String()
}

// requireAllTrained asserts every grid cell reached the iteration target.
func requireAllTrained(t *testing.T, cfg config.Config, res *JobResult) {
	t.Helper()
	if len(res.Reports) != cfg.NumCells() {
		t.Fatalf("got %d reports for %d cells", len(res.Reports), cfg.NumCells())
	}
	for i, r := range res.Reports {
		if r.CellRank != i {
			t.Fatalf("report %d is for cell %d", i, r.CellRank)
		}
		if r.Iterations != cfg.Iterations {
			t.Fatalf("cell %d trained %d/%d iterations (error: %s)", i, r.Iterations, cfg.Iterations, r.Error)
		}
		if center, _ := centerOf(r.Full); len(center) == 0 {
			t.Fatalf("cell %d has no final state", i)
		}
	}
}

func TestResilientJobNoFaults(t *testing.T) {
	cfg := chaosConfig(2, 2)
	res, err := RunJob(chaosOptions(cfg, 3))
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

// crashSlave5 kills slave 5 after its second state upload: the crash is
// scheduled on the message count, not the clock.
var crashSlave5 = mpi.FaultPlan{
	Seed:    17,
	Crashes: []mpi.CrashPoint{{Rank: 5, Tag: tagStateUpdate, AfterSends: 2}},
}

// TestChaosCrashRecovery3x3 is the acceptance scenario: a slave on a 3×3
// grid is killed mid-training; the master must evict it, re-dispatch its
// cell to a survivor from the last gathered state, and finish with all 9
// cells trained — reproducibly for the fixed (seed, schedule).
func TestChaosCrashRecovery3x3(t *testing.T) {
	cfg := chaosConfig(3, 3)
	plan := crashSlave5
	run := func() *JobResult {
		res, err := RunJobChaos(chaosOptions(cfg, 3), plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	requireAllTrained(t, cfg, res)
	log := strings.Join(res.Log, "\n")
	if !strings.Contains(log, "evicting slave 5") {
		t.Fatalf("master never evicted the crashed slave; log:\n%s", log)
	}
	if !strings.Contains(log, "reassigned cell 4 from slave 5") {
		t.Fatalf("master never reassigned the lost cell; log:\n%s", log)
	}
	// The survivor owning two cells reports its totals once: the merged
	// train count is the Iterate calls the reporting slaves made — each
	// cell's iterations, less those the adopted cell ran on the dead slave.
	var iterates int64
	for _, r := range res.Reports {
		iterates += int64(r.Iterations)
	}
	for _, line := range res.Log {
		var cell, from, to, iter int
		if _, err := fmt.Sscanf(line, "master: reassigned cell %d from slave %d to slave %d (re-dispatching from iteration %d)",
			&cell, &from, &to, &iter); err == nil {
			iterates -= int64(iter)
		}
	}
	if got := trainCount(res); got != iterates {
		t.Fatalf("merged train count %d for %d Iterate calls by the reporting slaves", got, iterates)
	}

	res2 := run()
	requireAllTrained(t, cfg, res2)
	if a, b := fingerprint(t, res), fingerprint(t, res2); a != b {
		t.Fatalf("crash recovery not reproducible for fixed (seed, schedule):\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestChaosScheduleSweep drives the resilient runtime through a sweep of
// fault schedules on 2×2 and 3×3 grids: the job must always complete with
// every cell trained, and content-preserving schedules (duplication,
// reordering delays) must reproduce bit-identical results.
func TestChaosScheduleSweep(t *testing.T) {
	cases := []struct {
		name          string
		rows, cols    int
		plan          mpi.FaultPlan
		maxStrikes    int
		deterministic bool
	}{
		{name: "drop", rows: 2, cols: 2, plan: ChaosPlan(101, 0.25, 0, 0), maxStrikes: 6},
		{name: "dup", rows: 2, cols: 2, plan: ChaosPlan(102, 0, 0.5, 0), maxStrikes: 4, deterministic: true},
		{name: "delay", rows: 2, cols: 2, plan: ChaosPlan(103, 0, 0, 0.5), maxStrikes: 4, deterministic: true},
		{name: "combo", rows: 2, cols: 2, plan: ChaosPlan(104, 0.15, 0.25, 0.3), maxStrikes: 6},
		{name: "combo-3x3", rows: 3, cols: 3, plan: ChaosPlan(105, 0.1, 0.2, 0.25), maxStrikes: 6},
		{
			name: "partition", rows: 2, cols: 2, maxStrikes: 6,
			// A one-way partition blacks out the master's acks to slave 2
			// for two of its uploads; re-uploads must heal it.
			plan: mpi.FaultPlan{
				Seed:       106,
				Partitions: []mpi.Partition{{From: 0, To: 2, Tag: tagStateAck, FromSeq: 1, ToSeq: 3}},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := chaosConfig(tc.rows, tc.cols)
			res, err := RunJobChaos(chaosOptions(cfg, tc.maxStrikes), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			requireAllTrained(t, cfg, res)
			if tc.deterministic {
				res2, err := RunJobChaos(chaosOptions(cfg, tc.maxStrikes), tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := fingerprint(t, res), fingerprint(t, res2); a != b {
					t.Fatalf("schedule %q not reproducible:\n--- run 1\n%s\n--- run 2\n%s", tc.name, a, b)
				}
			}
		})
	}
}

// TestChaosResultMatchesFaultFree verifies recovery is semantically
// transparent for content-preserving faults: a dup/delay-chaos run yields
// the same trained cells as the fault-free resilient run.
func TestChaosResultMatchesFaultFree(t *testing.T) {
	cfg := chaosConfig(2, 2)
	clean, err := RunJob(chaosOptions(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := RunJobChaos(chaosOptions(cfg, 4), ChaosPlan(7, 0, 0.4, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Reports {
		want, _ := centerOf(clean.Reports[i].Full)
		if got, _ := centerOf(chaotic.Reports[i].Full); len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("cell %d state diverged under dup/delay chaos", i)
		}
	}
}
