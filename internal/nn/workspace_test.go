package nn

import (
	"bytes"
	"math"
	"testing"

	"cellgan/internal/tensor"
)

// twinNets builds two identical small MLPs from the same seed.
func twinNets(seed uint64) (*Network, *Network) {
	a := MLP([]int{16, 32, 16}, func() Layer { return NewTanh() }, nil, tensor.NewRNG(seed))
	b := MLP([]int{16, 32, 16}, func() Layer { return NewTanh() }, nil, tensor.NewRNG(seed))
	return a, b
}

// TestForwardBackwardWSBitIdentical proves that reusing scratch leaks no
// state between passes: twin networks run the same batches, one on fresh
// scratch per pass, the other on a single workspace whose buffers have
// already held a larger and a smaller batch, and outputs, input gradients
// and parameter gradients must agree bit for bit.
func TestForwardBackwardWSBitIdentical(t *testing.T) {
	for _, act := range []struct {
		name string
		mk   func() Layer
	}{
		{"tanh", func() Layer { return NewTanh() }},
		{"sigmoid", func() Layer { return NewSigmoid() }},
		{"lrelu", func() Layer { return NewLeakyReLU(0.2) }},
		{"relu", func() Layer { return NewReLU() }},
	} {
		t.Run(act.name, func(t *testing.T) {
			a := MLP([]int{6, 9, 4}, act.mk, act.mk, tensor.NewRNG(11))
			b := MLP([]int{6, 9, 4}, act.mk, act.mk, tensor.NewRNG(11))
			rng := tensor.NewRNG(12)
			ws := NewWorkspace()

			for pass, rows := range []int{9, 2, 5, 5} { // grow, shrink, then steady state
				x := tensor.New(rows, 6)
				tensor.GaussianFill(x, 0, 1, rng)
				y := tensor.New(rows, 4)
				tensor.GaussianFill(y, 0, 1, rng)
				a.ZeroGrads()
				b.ZeroGrads()
				outA := a.ForwardWS(ws, x)
				outB := b.Forward(x)
				if !outA.Equal(outB) {
					t.Fatalf("pass %d: reused-workspace forward differs from fresh scratch", pass)
				}
				_, grad := MSELossInto(new(tensor.Mat), outB, y)
				dxA := a.BackwardWS(ws, grad)
				dxB := b.Backward(grad)
				if !dxA.Equal(dxB) {
					t.Fatalf("pass %d: reused-workspace input grad differs", pass)
				}
				ga, gb := a.Grads(), b.Grads()
				for i := range ga {
					if !ga[i].Equal(gb[i]) {
						t.Fatalf("pass %d: param grad %d differs", pass, i)
					}
				}
			}
		})
	}
}

// TestGradCheckThroughWorkspace validates the backward pass on a reused
// workspace against numerical differentiation directly.
func TestGradCheckThroughWorkspace(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := MLP([]int{5, 8, 1}, func() Layer { return NewLeakyReLU(0.2) }, nil, rng)
	x := tensor.New(6, 5)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.Full(6, 1, 1)
	ws := NewWorkspace()

	net.ZeroGrads()
	out := net.ForwardWS(ws, x)
	_, dOut := BCEWithLogitsLossInto(new(tensor.Mat), out, y)
	net.BackwardWS(ws, dOut)
	analytic := net.Grads()

	numeric := numericalGrad(net, func() float64 {
		l, _ := BCEWithLogitsLossInto(new(tensor.Mat), net.ForwardWS(ws, x), y)
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

// TestTrainingCheckpointBitExact trains twin networks — one on a reused
// workspace, one on fresh scratch per pass — with Adam for many steps and
// requires byte-identical serialized parameters, the golden-checkpoint
// idiom of the cluster determinism tests.
func TestTrainingCheckpointBitExact(t *testing.T) {
	a, b := twinNets(41)
	optA, optB := NewAdam(2e-3), NewAdam(2e-3)
	ws := NewWorkspace()
	rngA := tensor.NewRNG(42)
	rngB := tensor.NewRNG(42)

	step := func(n *Network, opt Optimizer, wsp *Workspace, rng *tensor.RNG) {
		x := tensor.New(8, 16)
		tensor.GaussianFill(x, 0, 1, rng)
		y := tensor.New(8, 16)
		tensor.GaussianFill(y, 0, 1, rng)
		n.ZeroGrads()
		out := n.ForwardWS(wsp, x)
		_, grad := MSELossInto(new(tensor.Mat), out, y)
		n.BackwardWS(wsp, grad)
		opt.Step(n)
	}
	for i := 0; i < 50; i++ {
		step(a, optA, ws, rngA)
		step(b, optB, nil, rngB) // nil workspace: fresh scratch per pass
	}
	pa, err := a.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.EncodeParams()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("workspace-trained checkpoint differs from fresh-scratch checkpoint")
	}
}

// TestTrainingIterationAllocs pins the steady-state allocation count of a
// full training iteration (forward, loss, backward, Adam step) through the
// workspace path. The only tolerated allocations are the two loss-side
// ones (target + gradient matrix); everything else must reuse buffers.
func TestTrainingIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	net, _ := twinNets(51)
	opt := NewAdam(1e-3)
	ws := NewWorkspace()
	rng := tensor.NewRNG(52)
	x := tensor.New(8, 16)
	tensor.GaussianFill(x, 0, 1, rng)
	y := tensor.New(8, 16)
	tensor.GaussianFill(y, 0, 1, rng)
	grad := new(tensor.Mat)

	iter := func() {
		net.ZeroGrads()
		out := net.ForwardWS(ws, x)
		_, _ = MSELossInto(grad, out, y)
		net.BackwardWS(ws, grad)
		opt.Step(net)
	}
	iter() // warm buffers and Adam state
	if allocs := testing.AllocsPerRun(20, iter); allocs > 2 {
		t.Errorf("training iteration: %.0f allocs per run, want <= 2", allocs)
	}
}
