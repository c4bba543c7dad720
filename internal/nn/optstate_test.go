package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"cellgan/internal/tensor"
)

// trainSteps applies n identical gradient steps so optimizer state builds
// up deterministically.
func trainSteps(net *Network, opt Optimizer, n int) {
	lin := net.Layers[0].(*Linear)
	for i := 0; i < n; i++ {
		net.ZeroGrads()
		w := lin.W.At(0, 0)
		lin.Grads()[0].Set(0, 0, 2*(w-3))
		opt.Step(net)
	}
}

func TestAdamStateResumeBitExact(t *testing.T) {
	rng := tensor.NewRNG(1)
	full := NewNetwork(NewLinear(1, 1, rng))
	fullOpt := NewAdam(0.05)
	trainSteps(full, fullOpt, 20)

	half := NewNetwork(NewLinear(1, 1, tensor.NewRNG(1)))
	halfOpt := NewAdam(0.05)
	trainSteps(half, halfOpt, 10)
	state, err := halfOpt.StateBinary()
	if err != nil {
		t.Fatal(err)
	}
	resumedOpt := NewAdam(0.999) // wrong lr, overwritten by restore
	if err := resumedOpt.RestoreBinary(half, state); err != nil {
		t.Fatal(err)
	}
	if resumedOpt.LearningRate() != 0.05 {
		t.Fatalf("restored lr %v", resumedOpt.LearningRate())
	}
	trainSteps(half, resumedOpt, 10)
	if got, want := half.Layers[0].(*Linear).W.At(0, 0), full.Layers[0].(*Linear).W.At(0, 0); got != want {
		t.Fatalf("resumed Adam diverged: %v vs %v", got, want)
	}
}

func TestSGDStateResumeBitExact(t *testing.T) {
	full := NewNetwork(NewLinear(1, 1, tensor.NewRNG(2)))
	fullOpt := NewSGD(0.01, 0.9)
	trainSteps(full, fullOpt, 12)

	half := NewNetwork(NewLinear(1, 1, tensor.NewRNG(2)))
	halfOpt := NewSGD(0.01, 0.9)
	trainSteps(half, halfOpt, 6)
	state, err := halfOpt.StateBinary()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewSGD(0.5, 0.1)
	if err := resumed.RestoreBinary(half, state); err != nil {
		t.Fatal(err)
	}
	if resumed.LR != 0.01 || resumed.Momentum != 0.9 {
		t.Fatalf("restored hyperparams %v/%v", resumed.LR, resumed.Momentum)
	}
	trainSteps(half, resumed, 6)
	if got, want := half.Layers[0].(*Linear).W.At(0, 0), full.Layers[0].(*Linear).W.At(0, 0); got != want {
		t.Fatalf("resumed SGD diverged: %v vs %v", got, want)
	}
}

func TestOptimizerStateBeforeAnyStep(t *testing.T) {
	// State of a never-stepped optimizer must round-trip too (fresh
	// checkpoints).
	net := NewNetwork(NewLinear(1, 1, tensor.NewRNG(1)))
	for _, opt := range []Optimizer{NewAdam(0.1), NewSGD(0.1, 0.5)} {
		state, err := opt.StateBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.RestoreBinary(net, state); err != nil {
			t.Fatalf("%T: %v", opt, err)
		}
	}
}

func TestRestoreBinaryRejectsGarbage(t *testing.T) {
	net := NewNetwork(NewLinear(1, 1, tensor.NewRNG(1)))
	for _, opt := range []Optimizer{NewAdam(0.1), NewSGD(0.1, 0)} {
		if err := opt.RestoreBinary(net, []byte{1, 2}); err == nil {
			t.Fatalf("%T accepted garbage", opt)
		}
	}
}

func TestAdamRestoredMomentsMatchOriginal(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork(NewLinear(2, 2, rng))
	opt := NewAdam(0.01)
	lin := net.Layers[0].(*Linear)
	lin.Grads()[0].Fill(0.5)
	lin.Grads()[1].Fill(-0.5)
	opt.Step(net)
	state, err := opt.StateBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewAdam(0.01)
	if err := restored.RestoreBinary(net, state); err != nil {
		t.Fatal(err)
	}
	if restored.t != opt.t {
		t.Fatalf("t %d vs %d", restored.t, opt.t)
	}
	for i := range opt.m {
		for j := range opt.m[i].Data {
			if math.Abs(restored.m[i].Data[j]-opt.m[i].Data[j]) != 0 {
				t.Fatal("first moments differ")
			}
			if restored.v[i].Data[j] != opt.v[i].Data[j] {
				t.Fatal("second moments differ")
			}
		}
	}
}

// State saved for one architecture used to restore into an optimizer about
// to step another: Step re-initialises only on a count mismatch, so a 4→3
// layer's moments under an 8→6 layer's gradients ran off the end of the
// buffer. The restore must refuse, name the matrix, and leave the
// optimizer usable.
func TestRestoreBinaryRejectsMismatchedShapes(t *testing.T) {
	small := NewNetwork(NewLinear(4, 3, tensor.NewRNG(1)))
	big := NewNetwork(NewLinear(8, 6, tensor.NewRNG(1)))
	deep := NewNetwork(NewLinear(4, 3, tensor.NewRNG(1)), NewLinear(3, 2, tensor.NewRNG(2)))
	for _, mk := range []func() Optimizer{
		func() Optimizer { return NewAdam(0.01) },
		func() Optimizer { return NewSGD(0.01, 0.9) },
	} {
		saved := mk()
		trainSteps(small, saved, 2)
		state, err := saved.StateBinary()
		if err != nil {
			t.Fatal(err)
		}
		for name, net := range map[string]*Network{"shape": big, "count": deep} {
			opt := mk()
			err := opt.RestoreBinary(net, state)
			if err == nil {
				t.Fatalf("%T accepted state of another architecture (%s mismatch)", opt, name)
			}
			if name == "shape" && !strings.Contains(err.Error(), "matrix 0 is 4×3") {
				t.Errorf("%T: error does not name the matrix: %v", opt, err)
			}
			trainSteps(net, opt, 1) // refused state must not have been half-installed
		}
	}
	// Second moments missing although first moments are present.
	adam := NewAdam(0.01)
	trainSteps(small, adam, 1)
	adam.v = nil
	state, _ := adam.StateBinary()
	if err := NewAdam(0.01).RestoreBinary(small, state); err == nil {
		t.Fatal("Adam accepted first moments without second moments")
	}
}

// SHA-256 of the StateBinary bytes of resetScenario, recorded before Reset
// kept any storage.
const (
	adamFresh   = "714efaa257a9a7c8e4fe10159f0e60e7b8c999f9f3be41da1984c97af9f13a87"
	adamStepped = "06a2132c280fe66cc3fd1ad1dded0558dd2ecbb7f35b07043651b5681d575375"
	sgdFresh    = "511094267bc0ccaa955d0d9c760ad78bb8bedf32c6f97d7759599680caedcc5b"
	sgdStepped  = "31932cf35b8f1b39e7b10a2a1a329708309425b15d543d4e5868216499be297c"
)

// resetScenario steps a fresh optimizer over a 3×2 Linear layer with fixed
// gradients and returns its StateBinary bytes fresh, after three steps and
// after a Reset that follows them.
func resetScenario(t *testing.T, opt Optimizer) (fresh, stepped, reset []byte) {
	t.Helper()
	net := NewNetwork(NewLinear(3, 2, tensor.NewRNG(21)))
	state := func() []byte {
		b, err := opt.StateBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh = state()
	for k := 0; k < 3; k++ {
		for i, g := range net.Grads() {
			for j := range g.Data {
				g.Data[j] = float64(k+1)*0.25 - float64(i+j)*0.125
			}
		}
		opt.Step(net)
	}
	stepped = state()
	opt.Reset()
	return fresh, stepped, state()
}

// TestOptimizerStateBytesPinned pins the checkpoint bytes of both
// optimizers fresh, stepped and reset: keeping the moment storage across a
// Reset must not show in StateBinary, which still writes a reset optimizer
// as having no moments.
func TestOptimizerStateBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Optimizer
		want [3]string
	}{
		{"adam", NewAdam(0.01), [3]string{adamFresh, adamStepped, adamFresh}},
		{"sgd", NewSGD(0.01, 0.9), [3]string{sgdFresh, sgdStepped, sgdFresh}},
	} {
		fresh, stepped, reset := resetScenario(t, tc.opt)
		for i, b := range [][]byte{fresh, stepped, reset} {
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want[i] {
				t.Errorf("%s state %d: sha256 %s, want %s", tc.name, i, got, tc.want[i])
			}
		}
	}
}

// TestOptimizerResetAllocs: after warm-up, Reset followed by Step reuses
// the moment storage — no allocation — and the step equals a fresh
// optimizer's first step bit for bit.
func TestOptimizerResetAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Optimizer
	}{
		{"adam", func() Optimizer { return NewAdam(0.01) }},
		{"sgd", func() Optimizer { return NewSGD(0.01, 0.9) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(NewLinear(4, 3, tensor.NewRNG(22)))
			for _, g := range net.Grads() {
				g.Fill(0.5)
			}
			opt := tc.mk()
			opt.Step(net)
			opt.Step(net)
			ref := net.Clone()
			for i, g := range ref.Grads() {
				g.CopyFrom(net.Grads()[i])
			}
			opt.Reset()
			opt.Step(net)
			tc.mk().Step(ref)
			if !bytes.Equal(tensor.AppendMats(nil, net.Params()), tensor.AppendMats(nil, ref.Params())) {
				t.Fatal("the first step after Reset differs from a fresh optimizer's first step")
			}
			if raceEnabled {
				t.Skip("allocation counts are not meaningful under -race")
			}
			if allocs := testing.AllocsPerRun(20, func() { opt.Reset(); opt.Step(net) }); allocs != 0 {
				t.Fatalf("Reset+Step allocates %.0f times, want 0", allocs)
			}
		})
	}
}
