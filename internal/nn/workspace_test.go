package nn

import (
	"bytes"
	"strings"
	"sync"
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
				wsB := NewWorkspace()
				outB := b.ForwardWS(wsB, x)
				if !outA.Equal(outB) {
					t.Fatalf("pass %d: reused-workspace forward differs from fresh scratch", pass)
				}
				_, grad := MSELossInto(new(tensor.Mat), outB, y)
				a.BackwardWS(ws, grad)
				b.BackwardWS(wsB, grad)
				ga, gb := a.Grads(), b.Grads()
				for i := range ga {
					if !ga[i].Equal(gb[i]) {
						t.Fatalf("pass %d: param grad %d differs", pass, i)
					}
				}
				if !a.InputGradWS(ws, grad).Equal(b.InputGradWS(wsB, grad)) {
					t.Fatalf("pass %d: reused-workspace input grad differs", pass)
				}
			}
		})
	}
}

// TestSharedNetworkConcurrentForward: a network holds no pass state, so
// several goroutines may forward one MLP or one DCGAN network at once,
// each on its own workspace (a full one or a forward-only one on its own
// pair), and every output equals the single-goroutine pass bit for bit.
func TestSharedNetworkConcurrentForward(t *testing.T) {
	gen, disc := dcganTestPair(t)
	mlp := MLP([]int{6, 9, 4}, func() Layer { return NewLeakyReLU(0.2) }, func() Layer { return NewTanh() }, tensor.NewRNG(95))
	rng := tensor.NewRNG(96)
	for _, tc := range []struct {
		name string
		net  *Network
		in   int
	}{{"mlp", mlp, 6}, {"dcgan-gen", gen, 6}, {"dcgan-disc", disc, 25}} {
		x := tensor.New(5, tc.in)
		tensor.GaussianFill(x, 0, 1, rng)
		want := fresh(tc.net, x)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			ws := NewWorkspace()
			if g%2 == 1 {
				ws = NewForwardWorkspace(new(ForwardPair))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if !tc.net.ForwardWS(ws, x).Equal(want) {
						t.Errorf("%s: a concurrent forward differs from the single-goroutine one", tc.name)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSplitPassesMatchFullPass holds the two one-job passes to a pass that
// computes everything at every layer: the train pass must leave the same
// accumulators and the critic pass return the same ∂L/∂input, bit for bit,
// and the critic pass must not touch an accumulator.
func TestSplitPassesMatchFullPass(t *testing.T) {
	gen, disc := dcganTestPair(t)
	mlp := MLP([]int{6, 9, 4}, func() Layer { return NewLeakyReLU(0.2) }, func() Layer { return NewTanh() }, tensor.NewRNG(81))
	rng := tensor.NewRNG(82)
	for _, tc := range []struct {
		name string
		net  *Network
		in   int
	}{{"mlp", mlp, 6}, {"dcgan-gen", gen, 6}, {"dcgan-disc", disc, 25}} {
		x, dOut := tensor.New(3, tc.in), tensor.New(3, tc.net.OutputWidth())
		tensor.GaussianFill(x, 0, 1, rng)
		tensor.GaussianFill(dOut, 0, 1, rng)
		ws, net := NewWorkspace(), tc.net
		net.ZeroGrads()
		net.ForwardWS(ws, x)
		dx := tensor.AppendMats(nil, []*tensor.Mat{net.backward(ws, dOut, NeedParams|NeedInput)})
		grads := tensor.AppendMats(nil, net.Grads())

		net.ZeroGrads()
		net.ForwardWS(ws, x)
		net.BackwardWS(ws, dOut)
		if !bytes.Equal(tensor.AppendMats(nil, net.Grads()), grads) {
			t.Errorf("%s: train-pass accumulators differ from the full pass", tc.name)
		}
		for _, g := range net.Grads() {
			g.Fill(7)
		}
		sentinel := tensor.AppendMats(nil, net.Grads())
		net.ForwardWS(ws, x)
		if !bytes.Equal(tensor.AppendMats(nil, []*tensor.Mat{net.InputGradWS(ws, dOut)}), dx) {
			t.Errorf("%s: critic-pass ∂L/∂input differs from the full pass", tc.name)
		}
		if !bytes.Equal(tensor.AppendMats(nil, net.Grads()), sentinel) {
			t.Errorf("%s: the critic pass touched a gradient accumulator", tc.name)
		}
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
	checkGrads(t, net, x, func(out *tensor.Mat) (float64, *tensor.Mat) {
		return BCEWithLogitsLossInto(new(tensor.Mat), out, y)
	})
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
		step(b, optB, NewWorkspace(), rngB) // fresh scratch per pass
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

// accumulators counts the layers of n that hold gradient storage.
func accumulators[T tensor.Float](n *NetworkOf[T]) int {
	k := 0
	for _, l := range n.Layers {
		var w *weights[T]
		switch l := l.(type) {
		case *LinearOf[T]:
			w = &l.weights
		case *Conv2DOf[T]:
			w = &l.weights
		case *ConvTranspose2DOf[T]:
			w = &l.weights
		}
		if w != nil && w.dW != nil {
			k++
		}
	}
	return k
}

// TestAccumulatorsOnFirstTrainPass: networks built by NewLinear, MLP, the
// conv constructors, Clone and Narrow hold parameters only; the critic
// pass leaves them so and allocates nothing once warm; the first train
// pass gives every weighted layer zeroed accumulators, and Grads hands out
// the very matrices the train pass accumulates into.
func TestAccumulatorsOnFirstTrainPass(t *testing.T) {
	rng := tensor.NewRNG(41)
	tanh := func() Layer { return NewTanh() }
	mlp := MLP([]int{6, 10, 4}, tanh, tanh, rng)
	conv := NewNetwork(must(NewConv2D(1, 6, 6, 2, 4, 2, 1, rng)), NewLeakyReLU(0.2),
		NewLinear(2*3*3, 18, rng), NewTanh(), must(NewConvTranspose2D(2, 3, 3, 1, 4, 2, 1, rng)))
	if NewLinear(3, 2, rng).dW != nil {
		t.Fatal("NewLinear allocated accumulators")
	}
	for _, tc := range []struct {
		name     string
		net      *Network
		in, want int
	}{{"MLP", mlp, 6, 2}, {"conv", conv, 36, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			if n := accumulators(tc.net) + accumulators(tc.net.Clone()) + accumulators(tc.net.Narrow()); n != 0 {
				t.Fatalf("%d layers of a fresh network, its clone or its narrow hold accumulators", n)
			}
			x := tensor.New(3, tc.in)
			tensor.GaussianFill(x, 0, 1, rng)
			ws := NewWorkspace()
			grad := tensor.Full(3, tc.net.OutputWidth(), 0.5)
			critic := func() { tc.net.ForwardWS(ws, x); tc.net.InputGradWS(ws, grad) }
			critic()
			if !raceEnabled {
				if allocs := testing.AllocsPerRun(5, critic); allocs != 0 {
					t.Fatalf("warm critic pass: %.0f allocs, want 0", allocs)
				}
			}
			if n := accumulators(tc.net); n != 0 {
				t.Fatalf("the critic pass allocated accumulators on %d layers", n)
			}
			tc.net.ZeroGrads() // a no-op without accumulators
			tc.net.ForwardWS(ws, x)
			tc.net.BackwardWS(ws, grad)
			if n := accumulators(tc.net); n != tc.want {
				t.Fatalf("%d layers hold accumulators after a train pass, want %d", n, tc.want)
			}
			if n := accumulators(tc.net.Clone()); n != 0 {
				t.Fatalf("a trained network's clone holds accumulators on %d layers", n)
			}
			// Grads before any train pass allocates the accumulators the
			// pass then fills: the network's cached slice holds live ones.
			c := tc.net.Clone()
			cached := c.Grads()
			c.ForwardWS(ws, x)
			c.BackwardWS(ws, grad)
			if !bytes.Equal(tensor.AppendMats(nil, cached), tensor.AppendMats(nil, tc.net.Grads())) {
				t.Fatal("Grads taken before the first train pass does not see its gradients")
			}
		})
	}
}

// forwardOnlyMatches runs net over each batch of xs on a forward-only
// workspace and on an ordinary one and requires bit-identical outputs. The
// pair under the forward-only workspace first holds a forward of another
// network at a larger batch, so the comparison runs on stale contents and
// excess capacity.
func forwardOnlyMatches[T tensor.Float](t *testing.T, name string, net, other *NetworkOf[T], xs []*tensor.Matrix[T], stale *tensor.Matrix[T]) {
	t.Helper()
	pair := new(ForwardPairOf[T])
	other.ForwardWS(NewForwardWorkspace(pair), stale)
	fo, ws := NewForwardWorkspace(pair), new(WorkspaceOf[T])
	for pass, x := range xs {
		if !net.ForwardWS(fo, x).Equal(net.ForwardWS(ws, x)) {
			t.Fatalf("%s, pass %d (%d rows): forward-only output differs", name, pass, x.Rows)
		}
	}
	if len(fo.layers) != 1 {
		t.Fatalf("%s: forward-only workspace owns %d layer scratches, want 1 (the output)", name, len(fo.layers))
	}
}

// TestForwardOnlyBitIdentical: a forward-only workspace computes exactly
// what an ordinary one does — the MLP and the DCGAN generator and
// discriminator, at float64 and float32, after a larger batch of another
// network went through the shared pair — while owning only the last
// layer's scratch.
func TestForwardOnlyBitIdentical(t *testing.T) {
	gen, disc := dcganTestPair(t)
	mlp := MLP([]int{6, 9, 25}, func() Layer { return NewLeakyReLU(0.2) }, func() Layer { return NewTanh() }, tensor.NewRNG(91))
	rng := tensor.NewRNG(92)
	fill := func(rows, cols int) *tensor.Mat {
		x := tensor.New(rows, cols)
		tensor.GaussianFill(x, 0, 1, rng)
		return x
	}
	for _, tc := range []struct {
		name        string
		net, other  *Network
		in, otherIn int
	}{{"mlp", mlp, gen, 6, 6}, {"dcgan-gen", gen, disc, 6, 25}, {"dcgan-disc", disc, gen, 25, 6}} {
		stale := fill(11, tc.otherIn)
		var xs []*tensor.Mat
		var xs32 []*tensor.Mat32
		for _, rows := range []int{5, 1, 5} {
			xs = append(xs, fill(rows, tc.in))
			xs32 = append(xs32, tensor.Narrow(xs[len(xs)-1]))
		}
		forwardOnlyMatches(t, tc.name, tc.net, tc.other, xs, stale)
		forwardOnlyMatches(t, tc.name+"/f32", tc.net.Narrow(), tc.other.Narrow(), xs32, tensor.Narrow(stale))
	}
}

// TestForwardOnlySharedPair covers the two ways a cell's fitness pass
// uses forward-only workspaces on one pair: the generator's output feeds
// the discriminator directly (genFitnessOn), and one output outlives other
// passes through the pair — the selection batch that every tournament
// candidate discriminator scores, with a sampling generator forward in
// between.
func TestForwardOnlySharedPair(t *testing.T) {
	gen, disc := dcganTestPair(t)
	rng := tensor.NewRNG(93)
	z, real := tensor.New(4, 6), tensor.New(3, 25)
	tensor.GaussianFill(z, 0, 1, rng)
	tensor.GaussianFill(real, 0, 1, rng)
	want := fresh(disc, fresh(gen, z))
	wantReal := fresh(disc, real)

	pair := new(ForwardPair)
	genWS, discWS, sampleWS := NewForwardWorkspace(pair), NewForwardWorkspace(pair), NewForwardWorkspace(pair)
	if !disc.ForwardWS(discWS, gen.ForwardWS(genWS, z)).Equal(want) {
		t.Fatal("generator output fed to the discriminator on one pair differs")
	}

	fake := gen.ForwardWS(genWS, z)
	kept := fake.Clone()
	zs := tensor.New(2, 6)
	for cand := 0; cand < 3; cand++ {
		if !disc.ForwardWS(discWS, real).Equal(wantReal) {
			t.Fatalf("candidate %d: real-batch logits differ", cand)
		}
		tensor.GaussianFill(zs, 0, 1, rng)
		gen.ForwardWS(sampleWS, zs) // a sampling pass on the same pair
		if !disc.ForwardWS(discWS, fake).Equal(want) {
			t.Fatalf("candidate %d: logits of the kept generator output differ", cand)
		}
	}
	if !fake.Equal(kept) {
		t.Fatal("a pass through the shared pair overwrote the generator's output")
	}
}

// TestForwardOnlyRefusesBackward: neither backward pass runs on a
// forward-only workspace, whose intermediates another pass may already
// have overwritten, and the panic names the cause rather than reading as
// a missing forward.
func TestForwardOnlyRefusesBackward(t *testing.T) {
	gen, _ := dcganTestPair(t)
	z := tensor.New(2, 6)
	ws := NewForwardWorkspace(new(ForwardPair))
	grad := gen.ForwardWS(ws, z).Clone()
	for name, pass := range map[string]func(){
		"BackwardWS":  func() { gen.BackwardWS(ws, grad) },
		"InputGradWS": func() { gen.InputGradWS(ws, grad) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "forward-only") || strings.Contains(msg, "Backward before Forward") {
					t.Errorf("%s on a forward-only workspace: panic %q, want one naming forward-only", name, msg)
				}
			}()
			pass()
		}()
	}
}

// TestForwardOnlyPairAllocs: once warm, generator and discriminator
// forwards alternating through one pair — a fitness pass's pattern, the
// generator's output feeding the discriminator — allocate nothing, though
// the pair's buffers are resized between the two networks' shapes.
func TestForwardOnlyPairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	gen, disc := dcganTestPair(t)
	z := tensor.New(8, 6)
	tensor.GaussianFill(z, 0, 1, tensor.NewRNG(94))
	pair := new(ForwardPair)
	genWS, discWS := NewForwardWorkspace(pair), NewForwardWorkspace(pair)
	pass := func() { disc.ForwardWS(discWS, gen.ForwardWS(genWS, z)) }
	pass() // warm
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Errorf("warm forward-only gen→disc pass: %.0f allocs per run, want 0", allocs)
	}
}
