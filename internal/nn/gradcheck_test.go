package nn

import (
	"math"
	"testing"

	"cellgan/internal/tensor"
)

// numericalGrad estimates ∂loss/∂θ for every element of params via central
// differences, where loss is recomputed from scratch by lossFn.
func numericalGrad(params []*tensor.Mat, lossFn func() float64, eps float64) []*tensor.Mat {
	var out []*tensor.Mat
	for _, p := range params {
		g := tensor.New(p.Rows, p.Cols)
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := lossFn()
			p.Data[i] = orig - eps
			lm := lossFn()
			p.Data[i] = orig
			g.Data[i] = (lp - lm) / (2 * eps)
		}
		out = append(out, g)
	}
	return out
}

// checkGrads runs one forward and both backward passes on one workspace
// and compares the train pass's parameter gradients and the critic pass's
// ∂L/∂input against numerical estimates.
func checkGrads(t *testing.T, net *Network, x *tensor.Mat, loss func(out *tensor.Mat) (float64, *tensor.Mat)) {
	t.Helper()
	ws := NewWorkspace()
	net.ZeroGrads()
	_, dOut := loss(net.ForwardWS(ws, x))
	net.BackwardWS(ws, dOut)
	dx := net.InputGradWS(ws, dOut).Clone()
	analytic := append(append([]*tensor.Mat(nil), net.Grads()...), dx)

	numeric := numericalGrad(append(append([]*tensor.Mat(nil), net.Params()...), x), func() float64 {
		l, _ := loss(net.ForwardWS(ws, x))
		return l
	}, 1e-6)

	for pi := range analytic {
		for i := range analytic[pi].Data {
			a, n := analytic[pi].Data[i], numeric[pi].Data[i]
			if math.Abs(a-n) > 1e-4*(1+math.Abs(a)+math.Abs(n)) {
				t.Fatalf("param %d elem %d: analytic %v numeric %v", pi, i, a, n)
			}
		}
	}
}

func TestGradCheckLinearMSE(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork(NewLinear(4, 3, rng))
	x := tensor.New(5, 4)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(5, 3)
	tensor.GaussianFill(y, 0, 1, rng)
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return MSELossInto(new(tensor.Mat), out, y)
	})
}

func TestGradCheckMLPTanhBCE(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := MLP([]int{6, 8, 1}, func() Layer { return NewTanh() }, func() Layer { return NewSigmoid() }, rng)
	x := tensor.New(7, 6)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(7, 1)
	for i := range y.Data {
		y.Data[i] = float64(i % 2)
	}
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return BCELossInto(new(tensor.Mat), out, y)
	})
}

func TestGradCheckMLPLogitsBCE(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := MLP([]int{5, 9, 1}, func() Layer { return NewLeakyReLU(0.2) }, nil, rng)
	x := tensor.New(6, 5)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(6, 1)
	for i := range y.Data {
		y.Data[i] = float64((i + 1) % 2)
	}
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return BCEWithLogitsLossInto(new(tensor.Mat), out, y)
	})
}

func TestGradCheckSoftmaxCE(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := MLP([]int{4, 10, 3}, func() Layer { return NewReLU() }, nil, rng)
	x := tensor.New(8, 4)
	tensor.GaussianFill(x, 0, 1, rng)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return SoftmaxCrossEntropy(out, labels)
	})
}

func TestGradCheckDeepGeneratorTopology(t *testing.T) {
	// A scaled-down version of the paper's generator (tanh hidden, tanh out).
	rng := tensor.NewRNG(5)
	net := MLP([]int{8, 16, 16, 12}, func() Layer { return NewTanh() }, func() Layer { return NewTanh() }, rng)
	x := tensor.New(4, 8)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(4, 12)
	tensor.GaussianFill(y, 0, 0.5, rng)
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return MSELossInto(new(tensor.Mat), out, y)
	})
}

func TestBackwardInputGradient(t *testing.T) {
	// Verify ∂L/∂x returned by Backward against numerical differentiation,
	// which is what GAN generator training depends on (gradient flows
	// through the discriminator into the generator's output).
	rng := tensor.NewRNG(6)
	net := MLP([]int{3, 5, 1}, func() Layer { return NewTanh() }, nil, rng)
	x := tensor.New(2, 3)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.Full(2, 1, 1)

	net.ZeroGrads()
	ws := NewWorkspace()
	out := net.ForwardWS(ws, x)
	_, dOut := BCEWithLogitsLossInto(new(tensor.Mat), out, y)
	dx := net.InputGradWS(ws, dOut)

	eps := 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := BCEWithLogitsLossInto(new(tensor.Mat), fresh(net, x), y)
		x.Data[i] = orig - eps
		lm, _ := BCEWithLogitsLossInto(new(tensor.Mat), fresh(net, x), y)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(dx.Data[i]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, dx.Data[i], num)
		}
	}
}
