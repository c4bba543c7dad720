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

func TestNet32MatchesFloat64MLP(t *testing.T) {
	rng := tensor.NewRNG(31)
	n := NewNetwork(
		NewLinear(8, 32, rng), NewLeakyReLU(0.2),
		NewLinear(32, 32, rng), NewTanh(),
		NewLinear(32, 16, rng), NewSigmoid(),
	)
	c, err := CompileNet32(n)
	if err != nil {
		t.Fatal(err)
	}
	if c.OutputWidth() != n.OutputWidth() {
		t.Fatalf("OutputWidth %d, want %d", c.OutputWidth(), n.OutputWidth())
	}
	x := tensor.New(5, 8)
	tensor.GaussianFill(x, 0, 1, rng)
	want := n.Forward(x)
	got := c.Forward(tensor.Narrow(x))
	if d := maxAbsDiff32(got, want); d > 1e-5 {
		t.Fatalf("float32 MLP forward drifts %g from float64", d)
	}
}

func TestNet32MatchesFloat64ConvTranspose(t *testing.T) {
	rng := tensor.NewRNG(32)
	ct, err := NewConvTranspose2D(4, 7, 7, 3, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(NewLinear(10, 4*7*7, rng), NewTanh(), ct, NewTanh())
	c, err := CompileNet32(n)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 10)
	tensor.GaussianFill(x, 0, 1, rng)
	want := n.Forward(x)
	got := c.Forward(tensor.Narrow(x))
	if d := maxAbsDiff32(got, want); d > 1e-5 {
		t.Fatalf("float32 convT forward drifts %g from float64", d)
	}
	// Second call must reuse buffers and stay consistent.
	got2 := c.Forward(tensor.Narrow(x))
	for i := range got.Data {
		if got.Data[i] != got2.Data[i] {
			t.Fatal("repeated Net32 forward is not deterministic")
		}
	}
}

func TestCompileNet32RejectsUnsupportedLayer(t *testing.T) {
	rng := tensor.NewRNG(33)
	conv, err := NewConv2D(1, 2, 2, 1, 1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(NewLinear(4, 4, rng), conv)
	if _, err := CompileNet32(n); err == nil {
		t.Fatal("CompileNet32 accepted a Conv2D layer")
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
	n := NewNetwork(NewLinear(6, 2*5*5, rng), NewTanh(), ct, NewTanh())
	c, err := CompileNet32(n)
	if err != nil {
		t.Fatal(err)
	}
	// Batch 4 stays on the serial kernels; batch 256 puts the Linear
	// matmul, the convT matmul and the col2im scatter above the parallel
	// threshold, i.e. through the float32 slot of the pooled task headers.
	for _, batch := range []int{4, 256} {
		x := tensor.Narrow(tensor.New(batch, 6))
		c.Forward(x) // warm buffers
		if allocs := testing.AllocsPerRun(20, func() { c.Forward(x) }); allocs != 0 {
			t.Errorf("warm Net32.Forward, batch %d: %.0f allocs per run, want 0", batch, allocs)
		}
	}
}
