package nn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"cellgan/internal/tensor"
)

// fresh runs n forward on a workspace of its own.
func fresh[T tensor.Float](n *NetworkOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	return n.ForwardWS(new(WorkspaceOf[T]), x)
}

func TestLinearForwardKnown(t *testing.T) {
	l := &Linear{weights: newWeights(
		tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}),
		tensor.FromSlice(1, 2, []float64{10, 20}),
	)}
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := l.Forward(new(LayerScratch), x)
	want := tensor.FromSlice(1, 2, []float64{14, 26})
	if !y.Equal(want) {
		t.Fatalf("Forward = %v want %v", y, want)
	}
	if l.In() != 2 || l.Out() != 2 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
}

func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLinear(2, 2, tensor.NewRNG(1)).Backward(new(LayerScratch), tensor.New(1, 2), NeedParams|NeedInput)
}

func TestActivationShapesAndRanges(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := tensor.New(4, 6)
	tensor.GaussianFill(x, 0, 3, rng)

	th := NewTanh().Forward(new(LayerScratch), x)
	sg := NewSigmoid().Forward(new(LayerScratch), x)
	lr := NewLeakyReLU(0.2).Forward(new(LayerScratch), x)
	rl := NewReLU().Forward(new(LayerScratch), x)
	for i := range x.Data {
		if th.Data[i] < -1 || th.Data[i] > 1 {
			t.Fatal("tanh out of range")
		}
		if sg.Data[i] <= 0 || sg.Data[i] >= 1 {
			t.Fatal("sigmoid out of range")
		}
		if x.Data[i] >= 0 && lr.Data[i] != x.Data[i] {
			t.Fatal("leaky relu positive part wrong")
		}
		if x.Data[i] < 0 && math.Abs(lr.Data[i]-0.2*x.Data[i]) > 1e-15 {
			t.Fatal("leaky relu negative part wrong")
		}
		if rl.Data[i] < 0 {
			t.Fatal("relu negative output")
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float64{800, -800})
	y := NewSigmoid().Forward(new(LayerScratch), x)
	if y.Data[0] != 1 || y.Data[1] != 0 {
		t.Fatalf("extreme sigmoid = %v", y.Data)
	}
	if math.IsNaN(y.Data[0]) || math.IsNaN(y.Data[1]) {
		t.Fatal("sigmoid NaN at extremes")
	}
}

func TestActivationBackwardBeforeForwardPanics(t *testing.T) {
	for _, l := range []Layer{NewTanh(), NewSigmoid(), NewLeakyReLU(0.1), NewReLU()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T Backward before Forward did not panic", l)
				}
			}()
			l.Backward(new(LayerScratch), tensor.New(1, 1), NeedParams|NeedInput)
		}()
	}
}

func TestNetworkCloneIndependence(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := MLP([]int{4, 8, 2}, func() Layer { return NewTanh() }, nil, rng)
	b := a.Clone()
	if a.ParamsL2() != b.ParamsL2() {
		t.Fatal("clone differs")
	}
	b.Params()[0].Set(0, 0, 99)
	if a.Params()[0].At(0, 0) == 99 {
		t.Fatal("clone shares storage")
	}
}

func TestCopyParamsFrom(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := MLP([]int{3, 5, 2}, func() Layer { return NewTanh() }, nil, rng)
	b := MLP([]int{3, 5, 2}, func() Layer { return NewTanh() }, nil, rng)
	if a.ParamsL2() == b.ParamsL2() {
		t.Fatal("different inits should differ")
	}
	if err := b.CopyParamsFrom(a); err != nil {
		t.Fatal(err)
	}
	if a.ParamsL2() != b.ParamsL2() {
		t.Fatal("copy failed")
	}

	c := MLP([]int{3, 6, 2}, func() Layer { return NewTanh() }, nil, rng)
	if err := c.CopyParamsFrom(a); err == nil {
		t.Fatal("shape mismatch not detected")
	}
	d := NewNetwork(NewLinear(3, 5, rng))
	if err := d.CopyParamsFrom(a); err == nil {
		t.Fatal("count mismatch not detected")
	}
}

func TestEncodeDecodeParams(t *testing.T) {
	rng := tensor.NewRNG(5)
	a := MLP([]int{4, 6, 3}, func() Layer { return NewLeakyReLU(0.2) }, nil, rng)
	data, err := a.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	b := MLP([]int{4, 6, 3}, func() Layer { return NewLeakyReLU(0.2) }, nil, rng)
	if err := b.DecodeParams(data); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		if !p.Equal(b.Params()[i]) {
			t.Fatalf("param %d mismatch after decode", i)
		}
	}

	wrong := MLP([]int{4, 7, 3}, func() Layer { return NewTanh() }, nil, rng)
	if err := wrong.DecodeParams(data); err == nil {
		t.Fatal("decode into wrong architecture accepted")
	}
	if err := b.DecodeParams([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecodeParamsRejectsWithoutWriting: a blob whose first matrices fit
// and whose later ones do not — a wrong shape further down, a cut body, a
// byte too many — is refused before anything is stored, so the network a
// live neighbour is decoded into is never left half-overwritten.
func TestDecodeParamsRejectsWithoutWriting(t *testing.T) {
	mlp := func(hidden int, seed uint64) *Network {
		return MLP([]int{4, hidden, 3}, func() Layer { return NewTanh() }, nil, tensor.NewRNG(seed))
	}
	good, _ := mlp(6, 1).EncodeParams()
	// Same first weight matrix shape (4×6) as the target, then it diverges.
	laterShape := NewNetwork(NewLinear(4, 6, tensor.NewRNG(2)), NewTanh(), NewLinear(6, 5, tensor.NewRNG(3)))
	bad, _ := laterShape.EncodeParams()
	cases := map[string][]byte{
		"later shape differs": bad,
		"truncated":           good[:len(good)-1],
		"trailing byte":       append(append([]byte(nil), good...), 0),
	}
	for name, blob := range cases {
		n := mlp(6, 9)
		before, _ := n.EncodeParams()
		if err := n.DecodeParams(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if after, _ := n.EncodeParams(); !bytes.Equal(before, after) {
			t.Errorf("%s: the rejected blob changed the network", name)
		}
	}
}

func TestMLPBuilderShapes(t *testing.T) {
	rng := tensor.NewRNG(6)
	g := MLP([]int{64, 256, 256, 784}, func() Layer { return NewTanh() }, func() Layer { return NewTanh() }, rng)
	// 3 Linear + 3 activations.
	if len(g.Layers) != 6 {
		t.Fatalf("layer count %d", len(g.Layers))
	}
	want := 64*256 + 256 + 256*256 + 256 + 256*784 + 784
	if g.NumParams() != want {
		t.Fatalf("NumParams = %d want %d", g.NumParams(), want)
	}
	z := tensor.New(2, 64)
	tensor.GaussianFill(z, 0, 1, rng)
	out := fresh(g, z)
	if out.Rows != 2 || out.Cols != 784 {
		t.Fatalf("output %d×%d", out.Rows, out.Cols)
	}
	if out.Max() > 1 || out.Min() < -1 {
		t.Fatal("tanh output escaped [-1,1]")
	}

	noOut := MLP([]int{3, 4}, func() Layer { return NewTanh() }, nil, rng)
	if len(noOut.Layers) != 1 {
		t.Fatalf("logit net layer count %d", len(noOut.Layers))
	}
}

func TestMLPTooShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MLP([]int{3}, nil, nil, tensor.NewRNG(1))
}

func TestBCELossKnownValue(t *testing.T) {
	p := tensor.FromSlice(1, 2, []float64{0.9, 0.1})
	y := tensor.FromSlice(1, 2, []float64{1, 0})
	loss, grad := BCELossInto(new(tensor.Mat), p, y)
	want := -math.Log(0.9)
	if math.Abs(loss-want) > 1e-12 {
		t.Fatalf("loss = %v want %v", loss, want)
	}
	if grad.Rows != 1 || grad.Cols != 2 {
		t.Fatal("grad shape")
	}
}

func TestBCEWithLogitsMatchesSigmoidBCE(t *testing.T) {
	rng := tensor.NewRNG(7)
	z := tensor.New(3, 4)
	tensor.GaussianFill(z, 0, 2, rng)
	y := tensor.New(3, 4)
	for i := range y.Data {
		y.Data[i] = float64(i % 2)
	}
	l1, g1 := BCEWithLogitsLossInto(new(tensor.Mat), z, y)
	p := z.Clone()
	for i, v := range p.Data {
		p.Data[i] = tensor.Sigmoid(v)
	}
	l2, g2bce := BCELossInto(new(tensor.Mat), p, y)
	if math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("losses differ: %v vs %v", l1, l2)
	}
	// Chain rule: ∂L/∂z = ∂L/∂p · σ'(z)
	g2 := g2bce.Clone()
	for i, pv := range p.Data {
		g2.Data[i] *= pv * (1 - pv)
	}
	if !g1.ApproxEqual(g2, 1e-9) {
		t.Fatal("gradients differ")
	}
}

func TestBCELossExtremeProbsFinite(t *testing.T) {
	p := tensor.FromSlice(1, 2, []float64{0, 1})
	y := tensor.FromSlice(1, 2, []float64{1, 0})
	loss, grad := BCELossInto(new(tensor.Mat), p, y)
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("loss not finite: %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("grad not finite: %v", grad.Data)
		}
	}
}

func TestLossShapeMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"BCE":    func() { BCELossInto(new(tensor.Mat), tensor.New(1, 2), tensor.New(2, 1)) },
		"Logits": func() { BCEWithLogitsLossInto(new(tensor.Mat), tensor.New(1, 2), tensor.New(2, 1)) },
		"MSE":    func() { MSELossInto(new(tensor.Mat), tensor.New(1, 2), tensor.New(2, 1)) },
		"CE":     func() { SoftmaxCrossEntropy(tensor.New(2, 3), []int{0}) },
		"CErng":  func() { SoftmaxCrossEntropy(tensor.New(1, 3), []int{5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		z := tensor.New(1+r.Intn(5), 1+r.Intn(6))
		tensor.GaussianFill(z, 0, 5, r)
		p := Softmax(z)
		for i := 0; i < p.Rows; i++ {
			s := 0.0
			for _, v := range p.Row(i) {
				if v < 0 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeLogitsStable(t *testing.T) {
	z := tensor.FromSlice(1, 3, []float64{1000, 999, -1000})
	p := Softmax(z)
	for _, v := range p.Data {
		if math.IsNaN(v) {
			t.Fatal("softmax NaN on extreme logits")
		}
	}
	if p.Data[0] < p.Data[1] || p.Data[1] < p.Data[2] {
		t.Fatal("softmax ordering broken")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float64{2, 1, 0, 3, 5, 4})
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-1) > 1e-15 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := Accuracy(logits, []int{1, 0, 1}); got != 0 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := Accuracy(tensor.New(0, 2), nil); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
}

func TestSGDStep(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := NewNetwork(NewLinear(1, 1, rng))
	lin := net.Layers[0].(*Linear)
	lin.W.Set(0, 0, 2)
	lin.B.Set(0, 0, 0)
	lin.Grads()[0].Set(0, 0, 1)
	opt := NewSGD(0.1, 0)
	opt.Step(net)
	if math.Abs(lin.W.At(0, 0)-1.9) > 1e-15 {
		t.Fatalf("W after step = %v", lin.W.At(0, 0))
	}
	if opt.LearningRate() != 0.1 {
		t.Fatal("lr getter")
	}
	opt.SetLearningRate(0.5)
	if opt.LearningRate() != 0.5 {
		t.Fatal("lr setter")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	rng := tensor.NewRNG(9)
	net := NewNetwork(NewLinear(1, 1, rng))
	lin := net.Layers[0].(*Linear)
	lin.W.Set(0, 0, 0)
	opt := NewSGD(1, 0.9)
	lin.Grads()[0].Set(0, 0, 1)
	opt.Step(net) // v = -1, W = -1
	opt.Step(net) // v = -1.9, W = -2.9
	if math.Abs(lin.W.At(0, 0)+2.9) > 1e-12 {
		t.Fatalf("momentum W = %v", lin.W.At(0, 0))
	}
	opt.Reset()
	opt.Step(net) // velocity reset: v=-1, W = -3.9
	if math.Abs(lin.W.At(0, 0)+3.9) > 1e-12 {
		t.Fatalf("post-reset W = %v", lin.W.At(0, 0))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w - 3)² with Adam; w should approach 3.
	rng := tensor.NewRNG(10)
	net := NewNetwork(NewLinear(1, 1, rng))
	lin := net.Layers[0].(*Linear)
	lin.W.Set(0, 0, -5)
	lin.B.Set(0, 0, 0)
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		net.ZeroGrads()
		w := lin.W.At(0, 0)
		lin.Grads()[0].Set(0, 0, 2*(w-3))
		opt.Step(net)
	}
	if math.Abs(lin.W.At(0, 0)-3) > 1e-3 {
		t.Fatalf("Adam did not converge: w = %v", lin.W.At(0, 0))
	}
}

func TestAdamResetClearsState(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := NewNetwork(NewLinear(1, 1, rng))
	opt := NewAdam(0.01)
	net.Layers[0].Grads()[0].Set(0, 0, 1)
	opt.Step(net)
	if opt.t != 1 {
		t.Fatalf("t = %d", opt.t)
	}
	opt.Reset()
	if state, _ := opt.StateBinary(); opt.t != 0 || len(state) != 40+2*4 {
		t.Fatalf("Reset incomplete: t = %d, %d state bytes", opt.t, len(state))
	}
}

func TestClipGrads(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := NewNetwork(NewLinear(2, 2, rng))
	lin := net.Layers[0].(*Linear)
	lin.Grads()[0].Fill(3)
	lin.Grads()[1].Fill(4)
	pre := ClipGrads(net, 1)
	if pre <= 1 {
		t.Fatalf("pre-clip norm = %v", pre)
	}
	post := ClipGrads(net, 0) // no-op query
	if math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v want 1", post)
	}
}

func TestZeroGradsClearsAll(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := MLP([]int{3, 4, 2}, func() Layer { return NewTanh() }, nil, rng)
	x := tensor.New(2, 3)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(2, 2)
	ws := NewWorkspace()
	out := net.ForwardWS(ws, x)
	_, g := MSELossInto(new(tensor.Mat), out, y)
	net.BackwardWS(ws, g)
	nonzero := false
	for _, gm := range net.Grads() {
		if gm.Norm2() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("backward produced no gradient")
	}
	net.ZeroGrads()
	for _, gm := range net.Grads() {
		if gm.Norm2() != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

func TestTrainTinyClassifier(t *testing.T) {
	// End-to-end sanity: learn XOR with a small tanh MLP.
	rng := tensor.NewRNG(14)
	net := MLP([]int{2, 8, 1}, func() Layer { return NewTanh() }, nil, rng)
	opt := NewAdam(0.05)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	var loss float64
	ws := NewWorkspace()
	for i := 0; i < 800; i++ {
		net.ZeroGrads()
		out := net.ForwardWS(ws, x)
		var g *tensor.Mat
		loss, g = BCEWithLogitsLossInto(new(tensor.Mat), out, y)
		net.BackwardWS(ws, g)
		opt.Step(net)
	}
	if loss > 0.05 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
}

// ReLU.Forward used to map NaN to 0 (v > 0 ? v : 0) while Backward let the
// gradient of the same element through: the one layer that laundered a
// diverged activation back to finite. Both widths must keep the NaN, and
// the rewritten loops must still agree with the definition on signed
// zeros and infinities.
func TestRectifiersPropagateNaN(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := tensor.FromSlice(1, 7, []float64{math.NaN(), -2, negZero, 0, 3, math.Inf(1), math.Inf(-1)})
	relu := []float64{math.NaN(), 0, 0, 0, 3, math.Inf(1), 0}
	leaky := []float64{math.NaN(), -0.5, negZero, 0, 3, math.Inf(1), math.Inf(-1)}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	for i, v := range NewReLU().Forward(new(LayerScratch), x).Data {
		if !same(v, relu[i]) {
			t.Errorf("ReLU(%v) = %v, want %v", x.Data[i], v, relu[i])
		}
	}
	for i, v := range NewLeakyReLU(0.25).Forward(new(LayerScratch), x).Data {
		if !same(v, leaky[i]) {
			t.Errorf("LeakyReLU(%v) = %v, want %v", x.Data[i], v, leaky[i])
		}
	}
	for i, v := range NewReLU().Narrow().Forward(new(LayerScratchOf[float32]), tensor.Narrow(x)).Data {
		if !same(float64(v), relu[i]) {
			t.Errorf("float32 ReLU(%v) = %v, want %v", x.Data[i], v, relu[i])
		}
	}
}
