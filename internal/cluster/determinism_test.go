package cluster

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"cellgan/internal/checkpoint"
	"cellgan/internal/config"
	"cellgan/internal/core"
	"cellgan/internal/mpi"
	"cellgan/internal/tensor"
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
// driver that released a push before its last read of it would train on
// 0xFF and leave the sequential bytes. The last row is the one where a
// push has most readers: async+resilient 3×3 at W = 2 with slave 5
// crashed, whose survivors co-own cells, each push decoded once for all
// of them, and re-push; with no sequential run to match, every cell must
// reach its target and every final full state must be finite, as poison
// (NaN as float64) would not leave it. The poison rides this test rather
// than a copy of it, which would push the package past go test's default
// timeout under make stress.
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
		requireMixtureOfFull(t, res)
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
		requireMixtureOfFull(t, res)
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
	w2 := asyncEvict
	w2.Cfg.AsyncStaleness = 2
	// Each crash row waits out an eviction on the wall clock, so the three
	// run side by side.
	rows := []struct {
		name   string
		opts   MasterOptions
		finite bool // no sequential run to match: only finite states
		res    *JobResult
		err    error
	}{
		{name: "resilient 3x3 RunJob with slave 5 crashed", opts: chaosOptions(cfg3, 3)},
		{name: "async+resilient 3x3 RunJob at W=1 with slave 5 crashed", opts: asyncEvict},
		{name: "async+resilient 3x3 RunJob at W=2 with slave 5 crashed", opts: w2, finite: true},
	}
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i].res, rows[i].err = RunJobChaos(rows[i].opts, crashSlave5)
		}()
	}
	wg.Wait()
	for _, row := range rows {
		if row.err != nil {
			t.Fatalf("%s: %v", row.name, row.err)
		}
		requireAllTrained(t, row.opts.Cfg, row.res)
		requireMixtureOfFull(t, row.res)
		for c, r := range row.res.Reports {
			if row.finite {
				if part := nonFinitePart(t, r.Full); part != "" {
					t.Errorf("%s: cell %d has a non-finite %s", row.name, c, part)
				}
			} else if !bytes.Equal(want3[c], r.Full) {
				t.Errorf("%s: cell %d full state differs from core.RunSequential", row.name, c)
			}
		}
	}
}

// requireMixtureOfFull asserts that every report, collected or
// synthesized, names the mixture its full state holds: the inventory
// carries the mixture beside Full so that no report decodes it.
func requireMixtureOfFull(t *testing.T, res *JobResult) {
	t.Helper()
	for _, r := range res.Reports {
		var ranks []int
		var weights []float64
		if len(r.Full) > 0 {
			f, err := core.UnmarshalFullState(r.Full)
			if err != nil {
				t.Fatalf("cell %d full state: %v", r.CellRank, err)
			}
			ranks, weights = f.MixtureRanks, f.MixtureWeights
		}
		if !slices.Equal(r.MixtureRanks, ranks) || !slices.Equal(r.MixtureWeights, weights) {
			t.Fatalf("cell %d reports mixture %v/%v, its full state holds %v/%v",
				r.CellRank, r.MixtureRanks, r.MixtureWeights, ranks, weights)
		}
	}
}

// nonFinitePart names the first part of a marshalled full state of an
// Adam-trained cell holding a NaN or ±Inf, or returns "".
func nonFinitePart(t *testing.T, full []byte) string {
	t.Helper()
	f, err := core.UnmarshalFullState(full)
	if err != nil {
		t.Fatal(err)
	}
	s := f.Cell
	scalars := append([]float64{s.GenLR, s.DiscLR, s.GenFitness, s.DiscFitness}, f.MixtureWeights...)
	if !tensor.AllFinite([]*tensor.Mat{tensor.FromSlice(1, len(scalars), scalars)}) {
		return "learning rate, fitness or mixture weight"
	}
	const adamHeader = 5 * 8 // the hyperparameters and step count ahead of the moments
	for _, part := range []struct {
		name string
		blob []byte
	}{{"generator", s.GenParams}, {"discriminator", s.DiscParams},
		{"generator moments", f.GenOpt[adamHeader:]}, {"discriminator moments", f.DiscOpt[adamHeader:]}} {
		for blob := part.blob; len(blob) > 0; {
			ms, rest, err := tensor.DecodeMats(blob)
			if err != nil {
				t.Fatalf("%s: %v", part.name, err)
			}
			if !tensor.AllFinite(ms) {
				return part.name
			}
			blob = rest
		}
	}
	return ""
}
