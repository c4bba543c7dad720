package nn

import (
	"bytes"
	"fmt"
	"testing"

	"cellgan/internal/tensor"
)

// TestGradCheckConv2DGeometries sweeps awkward geometries — 1×1 kernels
// (with and without stride), asymmetric inputs, pad larger than stride —
// through both the direct-loop oracle and the im2col backward pass.
func TestGradCheckConv2DGeometries(t *testing.T) {
	cases := []struct{ inC, inH, inW, outC, k, s, p int }{
		{1, 5, 7, 2, 1, 1, 0}, // 1×1 kernel, asymmetric input
		{1, 5, 5, 2, 1, 2, 0}, // 1×1 kernel with stride
		{2, 6, 4, 3, 3, 1, 2}, // pad 2, stride 1
		{1, 7, 5, 2, 3, 2, 1}, // strided, padded, asymmetric
		{2, 4, 6, 1, 2, 2, 1}, // even kernel
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", tc.inC, tc.inH, tc.inW, tc.k, tc.s, tc.p), func(t *testing.T) {
			mk := func() *Network {
				rng := tensor.NewRNG(61)
				conv, err := NewConv2D(tc.inC, tc.inH, tc.inW, tc.outC, tc.k, tc.s, tc.p, rng)
				if err != nil {
					t.Fatalf("conv: %v", err)
				}
				return NewNetwork(conv, NewTanh(), NewLinear(conv.OutputWidth(), 2, rng))
			}
			x := tensor.New(3, tc.inC*tc.inH*tc.inW)
			tensor.GaussianFill(x, 0, 1, tensor.NewRNG(62))
			y := tensor.Full(3, 2, 0.5)
			loss := func(out *tensor.Mat) (float64, *tensor.Mat) { return MSELossInto(new(tensor.Mat), out, y) }
			checkGrads(t, directConv(mk()), x, loss)
			checkGrads(t, mk(), x, loss) // the im2col lowering, independently of the oracle
		})
	}
}

// TestGradCheckConvTranspose2DGeometries does the same sweep for the
// transposed convolution, including a strided 1×1 kernel whose scatter
// leaves holes in the output.
func TestGradCheckConvTranspose2DGeometries(t *testing.T) {
	cases := []struct{ inC, inH, inW, outC, k, s, p int }{
		{2, 3, 4, 1, 1, 1, 0}, // 1×1 kernel, asymmetric input
		{1, 2, 2, 2, 1, 2, 0}, // strided 1×1: output has untouched holes
		{1, 3, 3, 2, 3, 2, 1}, // DCGAN-style upsample
		{2, 2, 3, 2, 4, 2, 1}, // even kernel, asymmetric
		{1, 4, 2, 1, 3, 3, 2}, // stride 3, pad 2
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", tc.inC, tc.inH, tc.inW, tc.k, tc.s, tc.p), func(t *testing.T) {
			mk := func() *Network {
				rng := tensor.NewRNG(63)
				ct, err := NewConvTranspose2D(tc.inC, tc.inH, tc.inW, tc.outC, tc.k, tc.s, tc.p, rng)
				if err != nil {
					t.Fatalf("convT: %v", err)
				}
				return NewNetwork(ct, NewTanh(), NewLinear(ct.OutputWidth(), 2, rng))
			}
			x := tensor.New(3, tc.inC*tc.inH*tc.inW)
			tensor.GaussianFill(x, 0, 1, tensor.NewRNG(64))
			y := tensor.Full(3, 2, 0.5)
			loss := func(out *tensor.Mat) (float64, *tensor.Mat) { return MSELossInto(new(tensor.Mat), out, y) }
			checkGrads(t, directConv(mk()), x, loss)
			checkGrads(t, mk(), x, loss) // the im2col lowering, independently of the oracle
		})
	}
}

// dcganTestPair builds twin (generator, discriminator) conv stacks from
// fixed seeds — a miniature of core/genome.go's CNN topology.
func dcganTestPair(t *testing.T) (gen, disc *Network) {
	t.Helper()
	rng := tensor.NewRNG(71)
	ct1, err := NewConvTranspose2D(2, 3, 3, 2, 3, 2, 1, rng) // 2×3×3 → 2×5×5
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := NewConvTranspose2D(2, 5, 5, 1, 3, 1, 1, rng) // 2×5×5 → 1×5×5
	if err != nil {
		t.Fatal(err)
	}
	gen = NewNetwork(NewLinear(6, 2*3*3, rng), NewTanh(), ct1, NewTanh(), ct2, NewTanh())
	c1, err := NewConv2D(1, 5, 5, 3, 3, 2, 1, rng) // 1×5×5 → 3×3×3
	if err != nil {
		t.Fatal(err)
	}
	disc = NewNetwork(c1, NewLeakyReLU(0.2), NewLinear(3*3*3, 1, rng))
	return gen, disc
}

// TestConvIterateBitExactWithWorkspace is the conv-stack version of
// core's TestCellIterateBitExactWithWorkspace: twin GAN pairs train with
// Adam — one on the production im2col layers through reused workspaces,
// one on the direct-loop oracle layers of conv_oracle_test.go — and every
// output, input gradient, parameter gradient and the final
// serialized checkpoint must be byte-identical.
func TestConvIterateBitExactWithWorkspace(t *testing.T) {
	genA, discA := dcganTestPair(t)
	genB, discB := dcganTestPair(t)
	directConv(genB)
	directConv(discB)
	optGA, optDA := NewAdam(2e-3), NewAdam(2e-3)
	optGB, optDB := NewAdam(2e-3), NewAdam(2e-3)
	genWS, discWS := NewWorkspace(), NewWorkspace()
	rngA, rngB := tensor.NewRNG(73), tensor.NewRNG(73)

	step := func(gen, disc *Network, optG, optD Optimizer, gws, dws *Workspace, rng *tensor.RNG) (*tensor.Mat, *tensor.Mat, *tensor.Mat) {
		z := tensor.New(4, 6)
		tensor.GaussianFill(z, 0, 1, rng)
		real := tensor.New(4, 25)
		tensor.GaussianFill(real, 0, 0.5, rng)

		// Discriminator step on real data.
		disc.ZeroGrads()
		logits := disc.ForwardWS(dws, real)
		_, dReal := BCEWithLogitsLossInto(new(tensor.Mat), logits, tensor.Full(4, 1, 1))
		disc.BackwardWS(dws, dReal)
		optD.Step(disc)

		// Generator step through the discriminator's critic pass.
		gen.ZeroGrads()
		fake := gen.ForwardWS(gws, z)
		fLogits := disc.ForwardWS(dws, fake)
		_, dFake := BCEWithLogitsLossInto(new(tensor.Mat), fLogits, tensor.Full(4, 1, 1))
		dImg := disc.InputGradWS(dws, dFake)
		gen.BackwardWS(gws, dImg)
		optG.Step(gen)
		return fake, fLogits, dImg
	}

	for i := 0; i < 4; i++ {
		fakeA, logitsA, dImgA := step(genA, discA, optGA, optDA, genWS, discWS, rngA)
		fakeB, logitsB, dImgB := step(genB, discB, optGB, optDB, NewWorkspace(), NewWorkspace(), rngB)
		if !fakeA.Equal(fakeB) {
			t.Fatalf("iter %d: generator outputs differ between the im2col layers and the direct oracle", i)
		}
		if !logitsA.Equal(logitsB) {
			t.Fatalf("iter %d: discriminator logits differ", i)
		}
		if !dImgA.Equal(dImgB) {
			t.Fatalf("iter %d: image gradients differ", i)
		}
		ga, gb := genA.Grads(), genB.Grads()
		for pi := range ga {
			if !ga[pi].Equal(gb[pi]) {
				t.Fatalf("iter %d: generator grad %d differs", i, pi)
			}
		}
		da, db := discA.Grads(), discB.Grads()
		for pi := range da {
			if !da[pi].Equal(db[pi]) {
				t.Fatalf("iter %d: discriminator grad %d differs", i, pi)
			}
		}
	}
	for _, pair := range []struct{ a, b *Network }{{genA, genB}, {discA, discB}} {
		pa, err := pair.a.EncodeParams()
		if err != nil {
			t.Fatal(err)
		}
		pb, err := pair.b.EncodeParams()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, pb) {
			t.Fatal("workspace-trained conv checkpoint differs from direct-path checkpoint")
		}
	}
}
