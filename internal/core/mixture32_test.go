package core

import (
	"math"
	"testing"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

func TestMixture32MatchesFloat64Sampling(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2), 2: tinyGen(3)})
	if err != nil {
		t.Fatal(err)
	}
	m.Weights = []float64{0.5, 0.3, 0.2}
	c := m.Narrow()
	// Identical seeds must give identical routing and latents — the two
	// paths consume the RNG stream the same way — so outputs differ only
	// by float32 forward precision.
	const n, latent = 64, 4
	want := m.Sample(n, latent, tensor.NewRNG(77))
	got := c.SampleWith(NewSampleWorkspace(), n, latent, tensor.NewRNG(77))
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %d×%d, want %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-5 {
			t.Fatalf("element %d drifts %g between float32 and float64 paths", i, d)
		}
	}
}

func TestMixture32SampleWithWorkspaceReuse(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(4), 1: tinyGen(5)})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Narrow()
	ws := NewSampleWorkspace()
	a := c.SampleWith(ws, 16, 4, tensor.NewRNG(9)).Clone()
	b := c.SampleWith(ws, 16, 4, tensor.NewRNG(9))
	if !a.Equal(b) {
		t.Fatal("workspace reuse changed the sampled batch")
	}
	// Zero-sample and shrinking calls must stay well-formed.
	if out := c.SampleWith(ws, 0, 4, tensor.NewRNG(9)); out.Rows != 0 {
		t.Fatalf("n=0 produced %d rows", out.Rows)
	}
	if out := c.SampleWith(ws, 3, 4, tensor.NewRNG(9)); out.Rows != 3 {
		t.Fatalf("shrunk batch has %d rows", out.Rows)
	}
}

func TestMixture32SampleAllocs(t *testing.T) {
	// One component keeps the per-generator batch size fixed at n: with
	// multiple components the binomial routing makes batch sizes fluctuate
	// run to run, and any run exceeding the warm-up maximum legitimately
	// grows a buffer, which is capacity growth, not a leak.
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(6)})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Narrow()
	ws := NewSampleWorkspace()
	rng := tensor.NewRNG(11)
	c.SampleWith(ws, 32, 4, rng) // warm every buffer
	allocs := testing.AllocsPerRun(20, func() {
		c.SampleWith(ws, 32, 4, rng)
	})
	if allocs != 0 {
		t.Errorf("warm Mixture32.SampleWith: %.0f allocs per run, want 0", allocs)
	}
}
