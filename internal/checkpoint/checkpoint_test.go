package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellgan/internal/config"
	"cellgan/internal/core"
)

func tinyCfg(iters int) config.Config {
	cfg := config.Default().Scaled(iters, 8, 100)
	return cfg
}

func TestRoundTripInMemory(t *testing.T) {
	res, err := core.RunSequential(tinyCfg(2), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != cp.Cfg {
		t.Fatal("config changed in transit")
	}
	if len(got.States) != len(cp.States) {
		t.Fatalf("states %d want %d", len(got.States), len(cp.States))
	}
	for i := range got.States {
		if !bytes.Equal(got.States[i].Marshal(), cp.States[i].Marshal()) {
			t.Fatalf("state %d changed in transit", i)
		}
	}
	if got.Iteration() != 2 {
		t.Fatalf("iteration %d", got.Iteration())
	}
}

func TestResumeBitExactSequential(t *testing.T) {
	// The headline property: 2 iterations + checkpoint + 2 more must be
	// bit-identical to 4 uninterrupted iterations.
	full, err := core.RunSequential(tinyCfg(4), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := core.RunSequential(tinyCfg(2), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(half)
	if err != nil {
		t.Fatal(err)
	}
	// Serialise through the file format to prove the on-disk round trip
	// preserves resumability too.
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(loaded, "seq", 4, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range full.Cells {
		if !bytes.Equal(full.Cells[r].State.GenParams, resumed.Cells[r].State.GenParams) {
			t.Fatalf("rank %d generator params differ after resume", r)
		}
		if !bytes.Equal(full.Cells[r].State.DiscParams, resumed.Cells[r].State.DiscParams) {
			t.Fatalf("rank %d discriminator params differ after resume", r)
		}
		if full.Cells[r].MixtureFitness != resumed.Cells[r].MixtureFitness {
			t.Fatalf("rank %d mixture fitness %v vs %v",
				r, full.Cells[r].MixtureFitness, resumed.Cells[r].MixtureFitness)
		}
		fw, rw := full.Cells[r].MixtureWeights, resumed.Cells[r].MixtureWeights
		if len(fw) != len(rw) {
			t.Fatalf("rank %d mixture sizes differ", r)
		}
		for i := range fw {
			if fw[i] != rw[i] {
				t.Fatalf("rank %d mixture weight %d: %v vs %v", r, i, fw[i], rw[i])
			}
		}
	}
	if full.BestRank != resumed.BestRank {
		t.Fatalf("best rank %d vs %d", full.BestRank, resumed.BestRank)
	}
}

func TestResumeBitExactParallel(t *testing.T) {
	full, err := core.RunParallel(tinyCfg(3), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := core.RunParallel(tinyCfg(1), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(half)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp, "par", 3, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r := range full.Cells {
		if !bytes.Equal(full.Cells[r].State.GenParams, resumed.Cells[r].State.GenParams) {
			t.Fatalf("rank %d generator params differ after parallel resume", r)
		}
	}
}

func TestResumeValidation(t *testing.T) {
	half, err := core.RunSequential(tinyCfg(2), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cp, "seq", 2, core.RunOptions{}); err == nil {
		t.Fatal("resume to already-reached target accepted")
	}
	if _, err := Resume(cp, "warp", 4, core.RunOptions{}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestFromResultValidation(t *testing.T) {
	if _, err := FromResult(&core.Result{}); err == nil {
		t.Fatal("empty result accepted")
	}
	// Async mode now produces resumable full states too (PR 9 lifted the
	// restriction); the checkpoint must round-trip like any other.
	res, err := core.RunAsync(tinyCfg(1), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		t.Fatalf("async result rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration() != 1 {
		t.Fatalf("iteration %d", got.Iteration())
	}
}

func TestSaveLoadFile(t *testing.T) {
	res, err := core.RunSequential(tinyCfg(1), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration() != 1 {
		t.Fatalf("iteration %d", got.Iteration())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadRejectsCorruptStreams(t *testing.T) {
	res, err := core.RunSequential(tinyCfg(1), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cp); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{9}, good[1:]...),
		"truncated": good[:len(good)/2],
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Version bump.
	bad := append([]byte(nil), good...)
	bad[8] = 99
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("future version accepted")
	}
}

func TestWriteRejectsWrongStateCount(t *testing.T) {
	res, err := core.RunSequential(tinyCfg(1), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	cp.States = cp.States[:1]
	var buf bytes.Buffer
	if err := Write(&buf, cp); err == nil {
		t.Fatal("state/grid mismatch accepted")
	}
}

// TestResumeMixedAsyncSnapshot resumes a mixed-iteration async snapshot
// of the kind the cluster async master writes: neighbours W−1 apart
// resume under window W, W apart are refused with the window that would
// accept them, and raising the stored window to that value resumes it.
func TestResumeMixedAsyncSnapshot(t *testing.T) {
	at := func(iters int) []*core.FullState {
		res, err := core.RunSequential(tinyCfg(iters), core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Full
	}
	one := at(1)
	cfg := tinyCfg(1)
	cfg.AsyncStaleness = 2
	mixed := func(lead []*core.FullState) *Checkpoint {
		cp, err := New(cfg, append([]*core.FullState{one[0]}, lead[1:]...))
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	if _, err := Resume(mixed(at(2)), "async", 4, core.RunOptions{}); err != nil {
		t.Fatalf("gap 1 under window 2 refused: %v", err)
	}
	gap2 := mixed(at(3))
	if _, err := Resume(gap2, "async", 4, core.RunOptions{}); err == nil || !strings.Contains(err.Error(), "window of at least 3") {
		t.Fatalf("gap 2 under window 2: got %v, want a refusal naming window 3", err)
	}
	gap2.Cfg.AsyncStaleness = 3
	res, err := Resume(gap2, "async", 4, core.RunOptions{})
	if err != nil {
		t.Fatalf("gap 2 under window 3 refused: %v", err)
	}
	for _, c := range res.Cells {
		if c.Last.Iteration != 4 {
			t.Fatalf("cell %d stopped at %d", c.Rank, c.Last.Iteration)
		}
	}
}
