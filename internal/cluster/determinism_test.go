package cluster

import (
	"bytes"
	"testing"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
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
// one seed they must end on byte-identical checkpoints.
func TestCrossModeGoldenCheckpoint(t *testing.T) {
	cfg := chaosConfig(2, 2)
	fromCore := func(run func(config.Config, core.RunOptions) (*core.Result, error)) []byte {
		res, err := run(cfg, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, &checkpoint.Checkpoint{Cfg: cfg, States: res.Full}); err != nil {
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
	golden := fromCore(core.RunSequential)
	for _, mode := range []struct {
		name string
		got  []byte
	}{
		{"core.RunParallel", fromCore(core.RunParallel)},
		{"plain RunJob", fromJob(MasterOptions{Cfg: cfg})},
		{"resilient RunJob", fromJob(chaosOptions(cfg, 3))},
	} {
		if !bytes.Equal(golden, mode.got) {
			t.Errorf("%s checkpoint differs from core.RunSequential (%d vs %d bytes)", mode.name, len(mode.got), len(golden))
		}
	}
}
