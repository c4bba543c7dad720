package core

import (
	"math"
	"testing"
	"testing/quick"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// forward runs n forward on a workspace of its own.
func forward(n *nn.Network, x *tensor.Mat) *tensor.Mat { return n.ForwardWS(nn.NewWorkspace(), x) }

// tinyGen builds a minimal generator latent=4 → out=6 for mixture tests.
func tinyGen(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.MLP([]int{4, 5, 6}, func() nn.Layer { return nn.NewTanh() },
		func() nn.Layer { return nn.NewTanh() }, rng)
}

func TestNewMixtureUniform(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{3: tinyGen(1), 1: tinyGen(2), 7: tinyGen(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ranks) != 3 || m.Ranks[0] != 1 || m.Ranks[1] != 3 || m.Ranks[2] != 7 {
		t.Fatalf("ranks %v", m.Ranks)
	}
	for _, w := range m.Weights {
		if math.Abs(w-1.0/3) > 1e-12 {
			t.Fatalf("weights %v", m.Weights)
		}
	}
	if _, err := NewMixture(nil); err == nil {
		t.Fatal("empty mixture accepted")
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := []float64{2, -1, 2}
	normalizeWeights(w)
	if w[1] != 0 || math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[2]-0.5) > 1e-12 {
		t.Fatalf("normalized %v", w)
	}
	z := []float64{-1, -2}
	normalizeWeights(z)
	if z[0] != 0.5 || z[1] != 0.5 {
		t.Fatalf("all-negative fallback %v", z)
	}
}

func TestNormalizeWeightsEdgeCases(t *testing.T) {
	// All-zero input has no mass to rescale: the projection falls back to
	// the uniform distribution.
	z := []float64{0, 0, 0, 0}
	normalizeWeights(z)
	for _, v := range z {
		if v != 0.25 {
			t.Fatalf("all-zero fallback %v", z)
		}
	}
	// A single element always normalises to the trivial simplex {1},
	// whatever its starting value.
	for _, start := range []float64{5, 0, -3} {
		s := []float64{start}
		normalizeWeights(s)
		if s[0] != 1 {
			t.Fatalf("single element %g normalised to %g", start, s[0])
		}
	}
}

func TestMixtureSampleDeterministic(t *testing.T) {
	// Identical seeds must reproduce the exact sample batch — the
	// property serving replicas rely on for debuggability.
	build := func() *Mixture {
		m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2), 2: tinyGen(3)})
		if err != nil {
			t.Fatal(err)
		}
		m.Weights = []float64{0.5, 0.3, 0.2}
		return m
	}
	a := build().Sample(32, 4, tensor.NewRNG(123))
	b := build().Sample(32, 4, tensor.NewRNG(123))
	if !a.Equal(b) {
		t.Fatal("same seed produced different samples")
	}
	c := build().Sample(32, 4, tensor.NewRNG(124))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestMixtureCloneIsIndependent(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2)})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if c.OutputDim() != m.OutputDim() {
		t.Fatalf("clone output dim %d want %d", c.OutputDim(), m.OutputDim())
	}
	want := m.Sample(8, 4, tensor.NewRNG(5))
	got := c.Sample(8, 4, tensor.NewRNG(5))
	if !got.Equal(want) {
		t.Fatal("clone is not the same generative model")
	}
	// Mutating the clone must not leak into the original.
	c.Weights[0] = 1
	c.Weights[1] = 0
	c.Generators[0].Params()[0].Fill(0)
	after := m.Sample(8, 4, tensor.NewRNG(5))
	if !after.Equal(want) {
		t.Fatal("mutating the clone changed the original mixture")
	}
}

func TestQuickNormalizeIsSimplex(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		w := append([]float64(nil), raw...)
		for i, v := range w {
			// Restrict to the realistic domain: simplex weights perturbed
			// by small Gaussian noise, never astronomically large.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				w[i] = math.Mod(v, 1)
			}
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
		}
		normalizeWeights(w)
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMixtureSampleShape(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2)})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Sample(10, 4, tensor.NewRNG(9))
	if out.Rows != 10 || out.Cols != 6 {
		t.Fatalf("sample shape %d×%d", out.Rows, out.Cols)
	}
	if out.Max() > 1 || out.Min() < -1 {
		t.Fatal("sample out of tanh range")
	}
	empty := m.Sample(0, 4, tensor.NewRNG(9))
	if empty.Rows != 0 {
		t.Fatal("empty sample")
	}
}

func TestMixtureSampleRespectsWeights(t *testing.T) {
	// Weight 1 on component A: all rows must come from A.
	a := tinyGen(1)
	b := tinyGen(2)
	m, err := NewMixture(map[int]*nn.Network{0: a, 1: b})
	if err != nil {
		t.Fatal(err)
	}
	m.Weights = []float64{1, 0}
	rng := tensor.NewRNG(4)
	out := m.Sample(8, 4, rng)
	// Reproduce: with the same rng all z go through a in one batch.
	rng2 := tensor.NewRNG(4)
	for i := 0; i < 8; i++ {
		_ = rng2.Float64() // component choice draws
	}
	z := tensor.New(8, 4)
	tensor.GaussianFill(z, 0, 1, rng2)
	want := forward(a, z)
	if !out.ApproxEqual(want, 1e-12) {
		t.Fatal("degenerate mixture did not route all samples through component A")
	}
}

func TestMixtureFitnessFinite(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1)})
	if err != nil {
		t.Fatal(err)
	}
	disc := nn.MLP([]int{6, 4, 1}, func() nn.Layer { return nn.NewTanh() }, nil, tensor.NewRNG(5))
	fit := m.FitnessWS(NewSampleWorkspace(), disc, 16, 4, tensor.NewRNG(6))
	if math.IsNaN(fit) || math.IsInf(fit, 0) || fit < 0 {
		t.Fatalf("fitness %v", fit)
	}
}

func TestEvolveWeightsKeepsSimplexAndNeverWorsens(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2), 2: tinyGen(3)})
	if err != nil {
		t.Fatal(err)
	}
	disc := nn.MLP([]int{6, 4, 1}, func() nn.Layer { return nn.NewTanh() }, nil, tensor.NewRNG(7))
	rng := tensor.NewRNG(8)
	for i := 0; i < 10; i++ {
		fit, _ := m.EvolveWeightsWS(NewSampleWorkspace(), disc, 0.05, 16, 4, rng)
		if math.IsNaN(fit) {
			t.Fatal("NaN fitness")
		}
		sum := 0.0
		for _, w := range m.Weights {
			if w < 0 {
				t.Fatalf("negative weight %v", m.Weights)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights left simplex: %v", m.Weights)
		}
	}
}

func TestEvolveWeightsZeroSigmaKeepsWeights(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2)})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), m.Weights...)
	disc := nn.MLP([]int{6, 4, 1}, func() nn.Layer { return nn.NewTanh() }, nil, tensor.NewRNG(9))
	m.EvolveWeightsWS(NewSampleWorkspace(), disc, 0, 8, 4, tensor.NewRNG(10))
	for i := range before {
		if math.Abs(before[i]-m.Weights[i]) > 1e-12 {
			t.Fatalf("σ=0 changed weights %v -> %v", before, m.Weights)
		}
	}
}

func TestUpdateMembersPreservesWeights(t *testing.T) {
	m, err := NewMixture(map[int]*nn.Network{0: tinyGen(1), 1: tinyGen(2)})
	if err != nil {
		t.Fatal(err)
	}
	m.Weights = []float64{0.8, 0.2}
	// Rank 1 leaves, rank 2 joins.
	if err := m.UpdateMembers(map[int]*nn.Network{0: tinyGen(1), 2: tinyGen(4)}); err != nil {
		t.Fatal(err)
	}
	if len(m.Ranks) != 2 || m.Ranks[0] != 0 || m.Ranks[1] != 2 {
		t.Fatalf("ranks %v", m.Ranks)
	}
	// Old weight 0.8 kept for rank 0; new member gets the mean 0.5; then
	// normalised: 0.8/(1.3), 0.5/(1.3).
	if math.Abs(m.Weights[0]-0.8/1.3) > 1e-12 || math.Abs(m.Weights[1]-0.5/1.3) > 1e-12 {
		t.Fatalf("weights %v", m.Weights)
	}
	if err := m.UpdateMembers(nil); err == nil {
		t.Fatal("empty member set accepted")
	}
}
