package core

import (
	"bytes"
	"testing"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// dirtyWorkspace pushes a larger-than-any and then a single-row batch
// through every buffer of c's workspace (both training nets on the train
// workspaces, backward included, forward only on the forward-only eval
// workspaces, the loss scratches, the latent buffers and the sampling
// workspace) without touching the cell's RNG, parameters or optimizer
// state, so that the training that follows runs on buffers with stale
// contents and excess capacity.
func dirtyWorkspace(c *Cell) {
	rng := tensor.NewRNG(999)
	ws := c.ws
	for _, n := range []int{evalBatchSize + c.Cfg.BatchSize + 3, 1} {
		for _, p := range []struct {
			gen, disc *nn.Workspace
			loss      *lossScratch
			z         *tensor.Mat
			backward  bool
		}{{ws.gen, ws.disc, &ws.train, &ws.zTrain, true}, {ws.evalGen, ws.evalDisc, &ws.eval, &ws.zEval, false}} {
			tensor.GaussianFill(p.z.Resize(n, c.Cfg.InputNeurons), 0, 1, rng)
			logits := c.disc.Net.ForwardWS(p.disc, c.gen.Net.ForwardWS(p.gen, p.z))
			_, grad := generatorLoss(LossLSGAN, logits, p.loss)
			if p.backward {
				c.gen.Net.BackwardWS(p.gen, c.disc.Net.InputGradWS(p.disc, grad))
				c.disc.Net.BackwardWS(p.disc, grad)
			}
		}
		c.mixture.FitnessWS(ws.sample, c.disc.Net, n, c.Cfg.InputNeurons, rng)
	}
	c.gen.Net.ZeroGrads()
	c.disc.Net.ZeroGrads()
}

// iterateTwins trains two same-seed cells — one on a single workspace that
// dirtyWorkspace has already put larger and smaller batches through, one
// on a brand-new workspace every iteration — and requires identical
// per-iteration stats and a byte-identical full-state checkpoint: buffer
// reuse must leak no state into training.
func iterateTwins(t *testing.T, cReuse, cFresh *Cell, iterations int) {
	t.Helper()
	dirtyWorkspace(cReuse)
	for i := 0; i < iterations; i++ {
		sReuse, err := cReuse.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		cFresh.ws = newCellWorkspace()
		sFresh, err := cFresh.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		if sReuse != sFresh {
			t.Fatalf("iteration %d stats diverge:\nreused: %+v\nfresh:  %+v", i, sReuse, sFresh)
		}
	}
	fReuse, err := cReuse.FullState()
	if err != nil {
		t.Fatal(err)
	}
	fFresh, err := cFresh.FullState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fReuse.Marshal(), fFresh.Marshal()) {
		t.Fatal("reused-workspace checkpoint differs from fresh-workspace checkpoint")
	}
}

// TestCellIterateBitExactWithWorkspace is the end-to-end form of the
// workspace-reuse invariant for MLP cells, across every GAN loss.
func TestCellIterateBitExactWithWorkspace(t *testing.T) {
	cfg := tinyConfig()
	cfg.LossSet = "bce,minimax,lsgan,wgan" // exercise every loss's scratch use
	cfg.LossMutationProbability = 0.5
	cReuse, _ := newTestCell(t, cfg, 0)
	cFresh, _ := newTestCell(t, cfg, 0)
	iterateTwins(t, cReuse, cFresh, 4)
}

// TestCNNCellIterateBitExactWithWorkspace is the convolutional form: the
// conv layers' im2col patch and staging buffers are reused too.
func TestCNNCellIterateBitExactWithWorkspace(t *testing.T) {
	cfg := tinyConfig()
	cfg.NetworkType = "CNN"
	cfg.BatchSize = 4
	cReuse, _ := newTestCell(t, cfg, 0)
	cFresh, _ := newTestCell(t, cfg, 0)
	iterateTwins(t, cReuse, cFresh, 2)
}

// mixtureForTest builds a two-component mixture of tiny generators.
func mixtureForTest(t *testing.T) (*Mixture, *nn.Network) {
	t.Helper()
	rng := tensor.NewRNG(61)
	gens := map[int]*nn.Network{
		0: nn.MLP([]int{4, 8, 6}, func() nn.Layer { return nn.NewTanh() }, func() nn.Layer { return nn.NewTanh() }, rng),
		1: nn.MLP([]int{4, 8, 6}, func() nn.Layer { return nn.NewTanh() }, func() nn.Layer { return nn.NewTanh() }, rng),
	}
	m, err := NewMixture(gens)
	if err != nil {
		t.Fatal(err)
	}
	m.Weights[0], m.Weights[1] = 0.7, 0.3
	disc := nn.MLP([]int{6, 8, 1}, func() nn.Layer { return nn.NewLeakyReLU(0.2) }, nil, tensor.NewRNG(62))
	return m, disc
}

// TestSampleWithBitIdentical checks one workspace reused across larger,
// smaller and empty batches against Sample (a fresh workspace per call)
// from equal RNG states.
func TestSampleWithBitIdentical(t *testing.T) {
	m, _ := mixtureForTest(t)
	ws := NewSampleWorkspace()
	for call, n := range []int{17, 5, 0, 17} {
		a := m.SampleWith(ws, n, 4, tensor.NewRNG(uint64(70+call)))
		b := m.Sample(n, 4, tensor.NewRNG(uint64(70+call)))
		if !a.Equal(b) {
			t.Fatalf("call %d (n=%d): reused-workspace SampleWith differs from Sample", call, n)
		}
	}
}

// TestEvolveWeightsWSBitIdentical runs the (1+1)-ES on twin mixtures — one
// on a single workspace that has already held a larger and a smaller
// batch, one on a fresh workspace per step — and demands identical weights
// and fitness trajectories, including across accepted proposals, where the
// reused workspace recycles the displaced weights slice.
func TestEvolveWeightsWSBitIdentical(t *testing.T) {
	mA, disc := mixtureForTest(t)
	mB, _ := mixtureForTest(t)
	ws := NewSampleWorkspace()
	for _, n := range []int{20, 2} {
		mA.FitnessWS(ws, disc, n, 4, tensor.NewRNG(80))
	}
	rngA := tensor.NewRNG(81)
	rngB := tensor.NewRNG(81)
	accepted := 0
	for i := 0; i < 12; i++ {
		fitA, okA := mA.EvolveWeightsWS(ws, disc, 0.3, 8, 4, rngA)
		fitB, okB := mB.EvolveWeightsWS(NewSampleWorkspace(), disc, 0.3, 8, 4, rngB)
		if fitA != fitB || okA != okB {
			t.Fatalf("step %d: reused (%v,%v) vs fresh (%v,%v)", i, fitA, okA, fitB, okB)
		}
		if okA {
			accepted++
		}
		for j := range mA.Weights {
			if mA.Weights[j] != mB.Weights[j] {
				t.Fatalf("step %d: weight %d diverges", i, j)
			}
		}
	}
	if accepted == 0 {
		t.Log("no proposal accepted in 12 steps; slice-recycling path not exercised")
	}
}
