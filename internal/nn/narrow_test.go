package nn

import (
	"math"
	"testing"

	"cellgan/internal/tensor"
)

// maxAbsDiff32 compares a float32 forward against the float64 forward of
// the same network, returning the largest |Δ| relative to (1 + |ref|).
func maxAbsDiff32(got *tensor.Mat32, want *tensor.Mat) float64 {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return math.Inf(1)
	}
	m := 0.0
	for i, v := range want.Data {
		d := math.Abs(float64(got.Data[i])-v) / (1 + math.Abs(v))
		if d > m {
			m = d
		}
	}
	return m
}

// requireNarrowMatches runs x through n and through n.Narrow() and
// fails when the float32 forward drifts beyond float32 precision.
func requireNarrowMatches(t *testing.T, what string, n *Network, x *tensor.Mat) {
	t.Helper()
	c := n.Narrow()
	if c.OutputWidth() != n.OutputWidth() {
		t.Fatalf("%s: OutputWidth %d, want %d", what, c.OutputWidth(), n.OutputWidth())
	}
	if d := maxAbsDiff32(fresh(c, tensor.Narrow(x)), fresh(n, x)); d > 1e-5 {
		t.Fatalf("%s: float32 forward drifts %g from float64", what, d)
	}
}

func TestNet32MatchesFloat64MLP(t *testing.T) {
	rng := tensor.NewRNG(31)
	n := NewNetwork(
		NewLinear(8, 32, rng), NewLeakyReLU(0.2),
		NewLinear(32, 32, rng), NewTanh(),
		NewLinear(32, 16, rng), NewSigmoid(),
	)
	x := tensor.New(5, 8)
	tensor.GaussianFill(x, 0, 1, rng)
	requireNarrowMatches(t, "MLP", n, x)
}

func TestNet32MatchesFloat64ConvTranspose(t *testing.T) {
	rng := tensor.NewRNG(32)
	ct, err := NewConvTranspose2D(4, 7, 7, 3, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(NewLinear(10, 4*7*7, rng), NewTanh(), ct, NewTanh())
	x := tensor.New(3, 10)
	tensor.GaussianFill(x, 0, 1, rng)
	requireNarrowMatches(t, "convT", n, x)
	// A reused float32 workspace must stay consistent.
	c, ws, x32 := n.Narrow(), new(WorkspaceOf[float32]), tensor.Narrow(x)
	got := c.ForwardWS(ws, x32).Clone()
	if !got.Equal(c.ForwardWS(ws, x32)) {
		t.Fatal("repeated Net32 forward is not deterministic")
	}
}

// must unwraps a conv constructor whose fixed test geometry cannot fail.
func must[L Layer](l L, err error) L {
	if err != nil {
		panic(err)
	}
	return l
}

// TestEveryLayerNarrows covers each of the seven layer types on its own,
// then a whole DCGAN discriminator: narrowing never fails, and the float32
// forward agrees with float64 to float32 precision.
func TestEveryLayerNarrows(t *testing.T) {
	rng := tensor.NewRNG(35)
	for _, tc := range []struct {
		name string
		net  *Network
		in   int
	}{
		{"Linear", NewNetwork(NewLinear(12, 7, rng)), 12},
		{"Tanh", NewNetwork(NewTanh()), 9},
		{"Sigmoid", NewNetwork(NewSigmoid()), 9},
		{"ReLU", NewNetwork(NewReLU()), 9},
		{"LeakyReLU", NewNetwork(NewLeakyReLU(0.2)), 9},
		{"Conv2D", NewNetwork(must(NewConv2D(2, 6, 6, 3, 3, 1, 1, rng))), 2 * 6 * 6},
		{"ConvTranspose2D", NewNetwork(must(NewConvTranspose2D(3, 4, 4, 2, 4, 2, 1, rng))), 3 * 4 * 4},
		{"DCGAN discriminator", NewNetwork(
			must(NewConv2D(1, 28, 28, 2, 4, 2, 1, rng)), NewLeakyReLU(0.2),
			must(NewConv2D(2, 14, 14, 4, 4, 2, 1, rng)), NewLeakyReLU(0.2),
			NewLinear(4*7*7, 1, rng),
		), 28 * 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.New(4, tc.in)
			tensor.GaussianFill(x, 0, 1, rng)
			requireNarrowMatches(t, tc.name, tc.net, x)
		})
	}
}

func TestNet32ForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := tensor.NewRNG(34)
	ct, err := NewConvTranspose2D(2, 5, 5, 1, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := NewNetwork(NewLinear(6, 2*5*5, rng), NewTanh(), ct, NewTanh()).Narrow()
	ws := new(WorkspaceOf[float32])
	// Batch 4 stays on the serial kernels; batch 256 puts the Linear
	// matmul, the convT matmul and the col2im scatter above the parallel
	// threshold, i.e. through the float32 slot of the pooled task headers.
	for _, batch := range []int{4, 256} {
		x := tensor.Narrow(tensor.New(batch, 6))
		c.ForwardWS(ws, x) // warm buffers
		if allocs := testing.AllocsPerRun(20, func() { c.ForwardWS(ws, x) }); allocs != 0 {
			t.Errorf("warm Net32.ForwardWS, batch %d: %.0f allocs per run, want 0", batch, allocs)
		}
	}
}
