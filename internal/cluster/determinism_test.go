package cluster

import (
	"bytes"
	"testing"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
)

// checkpointFromReports reassembles a full checkpoint from the FullState
// blobs a resilient job returns, in rank order as checkpoint.Write expects.
func checkpointFromReports(t *testing.T, res *JobResult) []byte {
	t.Helper()
	cfg := chaosConfig(2, 2)
	states := make([]*core.FullState, cfg.NumCells())
	for _, r := range res.Reports {
		if len(r.Full) == 0 {
			t.Fatalf("cell %d report carries no full state", r.CellRank)
		}
		fs, err := core.UnmarshalFullState(r.Full)
		if err != nil {
			t.Fatalf("cell %d full state: %v", r.CellRank, err)
		}
		states[r.CellRank] = fs
	}
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, &checkpoint.Checkpoint{Cfg: cfg, States: states}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenCheckpointDeterminism is the golden reproducibility check: two
// identically-seeded 2×2 grid runs must produce bit-identical checkpoints —
// every network parameter, optimizer moment, RNG stream and loader position.
// A third run under a content-preserving fault plan (duplicates and delays,
// no losses) must land on the same bytes: fault recovery may reshuffle the
// message schedule but never the training outcome.
func TestGoldenCheckpointDeterminism(t *testing.T) {
	cfg := chaosConfig(2, 2)
	opts := chaosOptions(cfg, 3)

	run := func() []byte {
		res, err := RunJob(opts)
		if err != nil {
			t.Fatal(err)
		}
		requireAllTrained(t, cfg, res)
		return checkpointFromReports(t, res)
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical runs produced different checkpoints (%d vs %d bytes)", len(first), len(second))
	}

	chaosRes, err := RunJobChaos(opts, ChaosPlan(42, 0, 0.35, 0.35))
	if err != nil {
		t.Fatal(err)
	}
	requireAllTrained(t, cfg, chaosRes)
	third := checkpointFromReports(t, chaosRes)
	if !bytes.Equal(first, third) {
		t.Fatal("dup/delay chaos run diverged from the fault-free checkpoint")
	}
}

// TestCrossModeGoldenCheckpoint pins the equalities the determinism suites
// leave open: the in-process sequential and parallel runners and the plain
// and resilient cluster jobs all run the same lockstep algorithm, so for
// one seed they must end on byte-identical checkpoints. Staleness window 1
// is that same lockstep in the asynchronous modes — in-process, over the
// cluster, with duplicated and delayed pushes and with lost ones — so
// their cells must end on the same full states. Their configuration
// differs in AsyncStaleness, which the checkpoint header records, so those
// rows compare states rather than files. So must a 3×3 job under the
// evict policy whose slave 5 crashes: the master re-dispatches its cell
// from the state it holds, and recovery moves no bit.
//
// Every row runs with recycled pushes poisoned (mpi.PoisonRecycled): a
// rank loop that released a push before its last read of it would train
// on 0xFF and leave the sequential bytes. The poison rides this test
// rather than a copy of it, which would push the package past go test's
// default timeout under make stress.
func TestCrossModeGoldenCheckpoint(t *testing.T) {
	mpi.PoisonRecycled(true)
	defer mpi.PoisonRecycled(false)
	cfg := chaosConfig(2, 2)
	fromCore := func(cfg config.Config, run func(config.Config, core.RunOptions) (*core.Result, error)) []*core.FullState {
		res, err := run(cfg, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Full
	}
	checkpointOf := func(states []*core.FullState) []byte {
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, &checkpoint.Checkpoint{Cfg: cfg, States: states}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fromJob := func(opts MasterOptions) []byte {
		res, err := RunJob(opts)
		if err != nil {
			t.Fatal(err)
		}
		requireAllTrained(t, cfg, res)
		return checkpointFromReports(t, res)
	}
	seq := fromCore(cfg, core.RunSequential)
	golden := checkpointOf(seq)
	for _, mode := range []struct {
		name string
		got  []byte
	}{
		{"core.RunParallel", checkpointOf(fromCore(cfg, core.RunParallel))},
		{"plain RunJob", fromJob(MasterOptions{Cfg: cfg})},
		{"resilient RunJob", fromJob(chaosOptions(cfg, 3))},
	} {
		if !bytes.Equal(golden, mode.got) {
			t.Errorf("%s checkpoint differs from core.RunSequential (%d vs %d bytes)", mode.name, len(mode.got), len(golden))
		}
	}

	w1 := cfg
	w1.AsyncStaleness = 1
	fromAsyncJob := func(plan *mpi.FaultPlan) [][]byte {
		res, err := runJob(asyncOptions(w1), plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireAllTrained(t, w1, res)
		states := make([][]byte, len(res.Reports))
		for i, r := range res.Reports {
			states[i] = r.Full
		}
		return states
	}
	marshal := func(full []*core.FullState) [][]byte {
		states := make([][]byte, len(full))
		for i, f := range full {
			states[i] = f.Marshal()
		}
		return states
	}
	dupDelay := ChaosPlan(42, 0, 0.35, 0.35)
	// A cell whose push to a neighbour is lost can be one iteration past
	// that neighbour's window by the time it re-pushes; only re-sending the
	// push before it lets the neighbour go on.
	drops := mpi.FaultPlan{Seed: 5, DropProb: 0.3, Tags: []int{tagAsyncState}}
	want := marshal(seq)
	for _, mode := range []struct {
		name string
		got  [][]byte
	}{
		{"core.RunAsync at W=1", marshal(fromCore(w1, core.RunAsync))},
		{"async RunJob at W=1", fromAsyncJob(nil)},
		{"async RunJob at W=1 under dup/delay chaos", fromAsyncJob(&dupDelay)},
		{"async RunJob at W=1 with dropped pushes", fromAsyncJob(&drops)},
	} {
		for c := range want {
			if !bytes.Equal(want[c], mode.got[c]) {
				t.Errorf("%s: cell %d full state differs from core.RunSequential", mode.name, c)
			}
		}
	}

	cfg3 := chaosConfig(3, 3)
	cfg3.AsyncStaleness = 1
	want3 := marshal(fromCore(cfg3, core.RunSequential))
	asyncEvict := chaosOptions(cfg3, 3)
	asyncEvict.Async = true
	for _, mode := range []struct {
		name string
		opts MasterOptions
	}{
		{"resilient 3x3 RunJob with slave 5 crashed", chaosOptions(cfg3, 3)},
		{"async+resilient 3x3 RunJob at W=1 with slave 5 crashed", asyncEvict},
	} {
		res, err := RunJobChaos(mode.opts, crashSlave5)
		if err != nil {
			t.Fatal(err)
		}
		requireAllTrained(t, cfg3, res)
		for c, r := range res.Reports {
			if !bytes.Equal(want3[c], r.Full) {
				t.Errorf("%s: cell %d full state differs from core.RunSequential", mode.name, c)
			}
		}
	}
}
