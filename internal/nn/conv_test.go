package nn

import (
	"math"
	"testing"

	"cellgan/internal/tensor"
)

func TestConv2DGeometry(t *testing.T) {
	rng := tensor.NewRNG(1)
	c, err := NewConv2D(1, 28, 28, 4, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	oc, oh, ow := c.OutDims()
	if oc != 4 || oh != 14 || ow != 14 {
		t.Fatalf("dims %d %d %d", oc, oh, ow)
	}
	// Invalid geometries.
	if _, err := NewConv2D(0, 8, 8, 1, 3, 1, 0, rng); err == nil {
		t.Fatal("zero channels accepted")
	}
	if _, err := NewConv2D(1, 4, 4, 1, 7, 1, 0, rng); err == nil {
		t.Fatal("kernel larger than input accepted")
	}
	if _, err := NewConv2D(1, 5, 5, 1, 2, 2, 0, rng); err == nil {
		t.Fatal("non-tiling geometry accepted")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1×3×3 input, 1 output channel, k=2 s=1 p=0, all-ones kernel, bias 1.
	rng := tensor.NewRNG(2)
	c, err := NewConv2D(1, 3, 3, 1, 2, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.W.Fill(1)
	c.B.Fill(1)
	x := tensor.FromSlice(1, 9, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	out := c.Forward(new(LayerScratch), x)
	want := []float64{1 + 2 + 4 + 5 + 1, 2 + 3 + 5 + 6 + 1, 4 + 5 + 7 + 8 + 1, 5 + 6 + 8 + 9 + 1}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out[%d] = %v want %v", i, out.Data[i], w)
		}
	}
}

func TestConvTranspose2DGeometry(t *testing.T) {
	rng := tensor.NewRNG(3)
	tl, err := NewConvTranspose2D(4, 7, 7, 2, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	oc, oh, ow := tl.OutDims()
	if oc != 2 || oh != 14 || ow != 14 {
		t.Fatalf("dims %d %d %d", oc, oh, ow)
	}
	if _, err := NewConvTranspose2D(1, 1, 1, 1, 1, 1, 3, rng); err == nil {
		t.Fatal("non-positive output accepted")
	}
}

func TestConvTransposeInvertsStride(t *testing.T) {
	// A 1×1 kernel with stride 1 reduces to a per-pixel linear map.
	rng := tensor.NewRNG(4)
	tl, err := NewConvTranspose2D(1, 2, 2, 1, 1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	tl.W.Fill(3)
	tl.B.Fill(-1)
	x := tensor.FromSlice(1, 4, []float64{1, 2, 3, 4})
	out := tl.Forward(new(LayerScratch), x)
	want := []float64{2, 5, 8, 11}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out[%d] = %v want %v", i, out.Data[i], w)
		}
	}
}

func TestGradCheckConv2D(t *testing.T) {
	rng := tensor.NewRNG(5)
	conv, err := NewConv2D(2, 6, 6, 3, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(conv, NewTanh())
	x := tensor.New(2, 2*6*6)
	tensor.GaussianFill(x, 0, 1, rng)
	_, oh, ow := conv.OutDims()
	y := tensor.New(2, 3*oh*ow)
	tensor.GaussianFill(y, 0, 0.5, rng)
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return MSELossInto(new(tensor.Mat), out, y)
	})
}

func TestGradCheckConvTranspose2D(t *testing.T) {
	rng := tensor.NewRNG(6)
	ct, err := NewConvTranspose2D(2, 3, 3, 2, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(ct, NewTanh())
	x := tensor.New(2, 2*3*3)
	tensor.GaussianFill(x, 0, 1, rng)
	_, oh, ow := ct.OutDims()
	y := tensor.New(2, 2*oh*ow)
	tensor.GaussianFill(y, 0, 0.5, rng)
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return MSELossInto(new(tensor.Mat), out, y)
	})
}

func TestGradCheckConvInputGradient(t *testing.T) {
	// ∂L/∂x through a conv stack (what a DCGAN generator update needs
	// when the discriminator is convolutional).
	rng := tensor.NewRNG(7)
	conv, err := NewConv2D(1, 4, 4, 2, 2, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(conv, NewLeakyReLU(0.2))
	x := tensor.New(1, 16)
	tensor.GaussianFill(x, 0, 1, rng)
	_, oh, ow := conv.OutDims()
	y := tensor.Full(1, 2*oh*ow, 0.3)

	net.ZeroGrads()
	ws := NewWorkspace()
	out := net.ForwardWS(ws, x)
	_, dOut := MSELossInto(new(tensor.Mat), out, y)
	dx := net.InputGradWS(ws, dOut)
	eps := 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := MSELossInto(new(tensor.Mat), fresh(net, x), y)
		x.Data[i] = orig - eps
		lm, _ := MSELossInto(new(tensor.Mat), fresh(net, x), y)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(dx.Data[i]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: %v vs %v", i, dx.Data[i], num)
		}
	}
}

func TestConvCloneIndependence(t *testing.T) {
	rng := tensor.NewRNG(8)
	conv, err := NewConv2D(1, 4, 4, 2, 2, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewConvTranspose2D(1, 2, 2, 1, 2, 2, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layer{conv, ct} {
		cl := l.Clone()
		cl.Params()[0].Set(0, 0, 12345)
		if l.Params()[0].At(0, 0) == 12345 {
			t.Fatalf("%T clone shares storage", l)
		}
	}
}

func TestConvBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(9)
	conv, _ := NewConv2D(1, 4, 4, 1, 2, 2, 0, rng)
	ct, _ := NewConvTranspose2D(1, 2, 2, 1, 2, 2, 0, rng)
	for _, l := range []Layer{conv, ct} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T no panic", l)
				}
			}()
			l.Backward(new(LayerScratch), tensor.New(1, 1), NeedParams|NeedInput)
		}()
	}
}

func TestDCGANStackEndToEnd(t *testing.T) {
	// A miniature DCGAN generator: latent → linear to 4·7·7 → convT to
	// 14×14 → convT to 28×28 tanh; and a conv discriminator back to one
	// logit. One adversarial step must run and produce finite losses.
	rng := tensor.NewRNG(10)
	ct1, err := NewConvTranspose2D(4, 7, 7, 2, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := NewConvTranspose2D(2, 14, 14, 1, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewNetwork(
		NewLinear(16, 4*7*7, rng), NewTanh(),
		ct1, NewTanh(),
		ct2, NewTanh(),
	)
	cv1, err := NewConv2D(1, 28, 28, 2, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	cv2, err := NewConv2D(2, 14, 14, 4, 4, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	disc := NewNetwork(
		cv1, NewLeakyReLU(0.2),
		cv2, NewLeakyReLU(0.2),
		NewLinear(4*7*7, 1, rng),
	)

	z := tensor.New(3, 16)
	tensor.GaussianFill(z, 0, 1, rng)
	genWS, discWS := NewWorkspace(), NewWorkspace()
	fake := gen.ForwardWS(genWS, z)
	if fake.Cols != 784 {
		t.Fatalf("generator output %d", fake.Cols)
	}
	logits := disc.ForwardWS(discWS, fake)
	if logits.Rows != 3 || logits.Cols != 1 {
		t.Fatalf("disc output %d×%d", logits.Rows, logits.Cols)
	}
	loss, grad := BCEWithLogitsLossInto(new(tensor.Mat), logits, tensor.Full(3, 1, 1))
	if math.IsNaN(loss) {
		t.Fatal("NaN loss")
	}
	gen.ZeroGrads()
	gen.BackwardWS(genWS, disc.InputGradWS(discWS, grad))
	opt := NewAdam(1e-3)
	before := gen.ParamsL2()
	opt.Step(gen)
	if gen.ParamsL2() == before {
		t.Fatal("DCGAN generator step changed nothing")
	}
}
