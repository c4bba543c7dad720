package nn

import (
	"testing"

	"cellgan/internal/tensor"
)

// benchConv returns the MNIST-shaped discriminator front conv
// (1×28×28 → 8×14×14, k4 s2 p1) and a batch-32 input.
func benchConv(b *testing.B) (*Conv2D, *tensor.Mat) {
	b.Helper()
	rng := tensor.NewRNG(91)
	conv, err := NewConv2D(1, 28, 28, 8, 4, 2, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(32, 1*28*28)
	tensor.GaussianFill(x, 0, 1, rng)
	return conv, x
}

// benchConvT returns the DCGAN upsampling conv (8×14×14 → 1×28×28,
// k4 s2 p1) and a batch-32 input.
func benchConvT(b *testing.B) (*ConvTranspose2D, *tensor.Mat) {
	b.Helper()
	rng := tensor.NewRNG(92)
	ct, err := NewConvTranspose2D(8, 14, 14, 1, 4, 2, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(32, 8*14*14)
	tensor.GaussianFill(x, 0, 1, rng)
	return ct, x
}

func BenchmarkConv2DForwardIm2Col(b *testing.B) {
	conv, x := benchConv(b)
	s := new(LayerScratch)
	conv.Forward(s, x) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = conv.Forward(s, x)
	}
}

func BenchmarkConv2DBackwardIm2Col(b *testing.B) {
	conv, x := benchConv(b)
	s := new(LayerScratch)
	out := conv.Forward(s, x)
	grad := tensor.New(out.Rows, out.Cols)
	tensor.GaussianFill(grad, 0, 1, tensor.NewRNG(93))
	conv.Backward(s, grad, NeedParams|NeedInput) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.ZeroGrads()
		_ = conv.Backward(s, grad, NeedParams|NeedInput)
	}
}

func BenchmarkConvTranspose2DForwardIm2Col(b *testing.B) {
	ct, x := benchConvT(b)
	s := new(LayerScratch)
	ct.Forward(s, x) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ct.Forward(s, x)
	}
}

func BenchmarkConvTranspose2DBackwardIm2Col(b *testing.B) {
	ct, x := benchConvT(b)
	s := new(LayerScratch)
	out := ct.Forward(s, x)
	grad := tensor.New(out.Rows, out.Cols)
	tensor.GaussianFill(grad, 0, 1, tensor.NewRNG(94))
	ct.Backward(s, grad, NeedParams|NeedInput) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.ZeroGrads()
		_ = ct.Backward(s, grad, NeedParams|NeedInput)
	}
}

// dcganNets builds the full MNIST-scale DCGAN pair of core/genome.go
// (latent 64, 8 base channels): Linear+reshape → two ConvT upsamples for
// the generator, two strided convs + Linear head for the discriminator.
func dcganNets(tb testing.TB) (gen, disc *Network) {
	tb.Helper()
	rng := tensor.NewRNG(95)
	ct1, err := NewConvTranspose2D(16, 7, 7, 8, 4, 2, 1, rng)
	if err != nil {
		tb.Fatal(err)
	}
	ct2, err := NewConvTranspose2D(8, 14, 14, 1, 4, 2, 1, rng)
	if err != nil {
		tb.Fatal(err)
	}
	gen = NewNetwork(NewLinear(64, 16*7*7, rng), NewTanh(), ct1, NewTanh(), ct2, NewTanh())
	c1, err := NewConv2D(1, 28, 28, 8, 4, 2, 1, rng)
	if err != nil {
		tb.Fatal(err)
	}
	c2, err := NewConv2D(8, 14, 14, 16, 4, 2, 1, rng)
	if err != nil {
		tb.Fatal(err)
	}
	disc = NewNetwork(c1, NewLeakyReLU(0.2), c2, NewLeakyReLU(0.2), NewLinear(16*7*7, 1, rng))
	return gen, disc
}

// dcganIteration runs one adversarial training iteration on the given
// workspaces: generator forward, discriminator forward, the generator's
// train pass through the discriminator's critic pass, the discriminator's
// train pass on the same batch, and Adam steps on both nets.
func dcganIteration(gen, disc *Network, optG, optD Optimizer, gws, dws *Workspace, z, ones *tensor.Mat, grad *tensor.Mat) {
	gen.ZeroGrads()
	disc.ZeroGrads()
	fake := gen.ForwardWS(gws, z)
	logits := disc.ForwardWS(dws, fake)
	_, _ = BCEWithLogitsLossInto(grad, logits, ones)
	gen.BackwardWS(gws, disc.InputGradWS(dws, grad))
	disc.BackwardWS(dws, grad)
	optG.Step(gen)
	optD.Step(disc)
}

func BenchmarkDCGANTrainIterationWS(b *testing.B) {
	gen, disc := dcganNets(b)
	optG, optD := NewAdam(2e-4), NewAdam(2e-4)
	gws, dws := NewWorkspace(), NewWorkspace()
	z := tensor.New(32, 64)
	tensor.GaussianFill(z, 0, 1, tensor.NewRNG(96))
	ones := tensor.Full(32, 1, 1)
	grad := new(tensor.Mat)
	dcganIteration(gen, disc, optG, optD, gws, dws, z, ones, grad) // warm buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dcganIteration(gen, disc, optG, optD, gws, dws, z, ones, grad)
	}
}

// TestDCGANTrainIterationAllocs is the conv-stack allocation tripwire
// (picked up by CI's bench-smoke -run='Allocs' step): a steady-state
// DCGAN train iteration through the workspace path must stay in the
// single digits of allocations.
func TestDCGANTrainIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	gen, disc := dcganNets(t)
	optG, optD := NewAdam(2e-4), NewAdam(2e-4)
	gws, dws := NewWorkspace(), NewWorkspace()
	z := tensor.New(32, 64)
	tensor.GaussianFill(z, 0, 1, tensor.NewRNG(97))
	ones := tensor.Full(32, 1, 1)
	grad := new(tensor.Mat)
	iter := func() {
		dcganIteration(gen, disc, optG, optD, gws, dws, z, ones, grad)
	}
	iter() // warm workspaces, scratch buffers and Adam state
	if allocs := testing.AllocsPerRun(10, iter); allocs > 2 {
		t.Errorf("DCGAN train iteration: %.0f allocs per run, want <= 2", allocs)
	}
}
