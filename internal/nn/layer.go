// Package nn implements the feed-forward neural networks used for GAN
// training: fully-connected and convolutional layers with hand-derived
// backpropagation, the activation functions from the paper's Table I,
// binary cross-entropy and softmax losses, and SGD/Adam optimizers with
// mutable hyperparameters (the coevolutionary algorithm mutates the Adam
// learning rate at runtime).
//
// There is one layer protocol. Forward and Backward take the per-layer
// LayerScratch that owns every buffer of the pass — the layer output, the
// input gradient, the cached forward input and any auxiliary matrices — so
// a layer value holds parameters and, once it has trained, gradient
// accumulators only. Training and serving loops hand each network a
// Workspace (one LayerScratch per layer slot, reused across iterations,
// zero steady-state allocations); a pass that never runs backward uses a
// forward-only Workspace, which keeps only the last layer's output and
// runs the rest on a ForwardPair shared with its goroutine's other
// forward-only workspaces. Since a pass's state lives on the caller's
// scratch, one network may run on several goroutines at once, each on its
// own workspace. Optimizers consume (params, grads) pairs. Each backward pass
// computes only what is read: the train pass (BackwardWS) accumulates
// parameter gradients, the critic pass (InputGradWS) returns ∂L/∂input.
//
// Layers, scratch and network are written once over the element width,
// like tensor.Matrix. The float64 instantiation keeps the plain names
// (Network, Layer, Linear, Workspace, …) and is what training runs on;
// the float32 one is the serving tier: Network.Narrow copies a trained
// network into a Net32 (every layer narrows, so it cannot fail), which
// runs ForwardWS on a float32 workspace.
package nn

import (
	"cellgan/internal/tensor"
)

// LayerOf is one differentiable stage of a network over element type T.
type LayerOf[T tensor.Float] interface {
	// Forward computes the layer output for a batch (rows = samples) into
	// s, which the caller owns, and returns it; the result aliases s and
	// is valid until the next pass through s. Forward writes s and nothing
	// of the layer, so passes on distinct scratches may run concurrently.
	Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T]
	// Backward receives ∂L/∂output for the most recent Forward on s (it
	// panics if there was none), accumulates parameter gradients if need
	// has NeedParams, and returns ∂L/∂input, aliasing s, if it has
	// NeedInput, else nil; activations have nothing to skip and ignore
	// need. What Forward cached on s stays intact for another Backward.
	Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], need Need) *tensor.Matrix[T]
	// Params returns the trainable parameter matrices (possibly empty).
	Params() []*tensor.Matrix[T]
	// Grads returns the gradient accumulators, aligned with Params,
	// allocating them zeroed on first use (as a train pass does).
	Grads() []*tensor.Matrix[T]
	// ZeroGrads clears the gradient accumulators, if there are any yet.
	ZeroGrads()
	// Clone returns an independent copy of the layer (parameters copied,
	// no accumulators, no scratch shared).
	Clone() LayerOf[T]
	// Narrow is Clone into the float32 instantiation: parameters rounded
	// to float32, no accumulators, no scratch shared.
	Narrow() LayerOf[float32]
}

// The float64 instantiations, which training runs on, keep the plain
// names; Net32 is the float32 network of the serving tier.
type (
	Layer           = LayerOf[float64]
	LayerScratch    = LayerScratchOf[float64]
	Workspace       = WorkspaceOf[float64]
	Network         = NetworkOf[float64]
	Net32           = NetworkOf[float32]
	Linear          = LinearOf[float64]
	Tanh            = TanhOf[float64]
	Sigmoid         = SigmoidOf[float64]
	ReLU            = ReLUOf[float64]
	LeakyReLU       = LeakyReLUOf[float64]
	Conv2D          = Conv2DOf[float64]
	ConvTranspose2D = ConvTranspose2DOf[float64]
)

// Need tells LayerOf.Backward which of its two results to compute.
type Need uint8

const (
	NeedParams Need = 1 << iota // accumulate parameter gradients
	NeedInput                   // return ∂L/∂input
)

// Sized is implemented by layers with a fixed output width, letting
// callers determine a network's output dimension without a probe forward
// pass.
type Sized interface {
	// OutputWidth returns the per-sample output length of the layer.
	OutputWidth() int
}

// weights is the parameter pair of the Linear and conv layers — a weight
// matrix W and a bias row B — with their gradient accumulators. Only a
// network that trains reads accumulators, so they are allocated, zeroed,
// on first use (a train pass or Grads): a copy that only forwards — a
// kept neighbour, a serving clone, a narrowed net — holds parameters only.
type weights[T tensor.Float] struct {
	W, B   *tensor.Matrix[T]
	dW, dB *tensor.Matrix[T] // nil until grads
}

// newWeights pairs w and b, with no gradient accumulators yet.
func newWeights[T tensor.Float](w, b *tensor.Matrix[T]) weights[T] { return weights[T]{W: w, B: b} }

// clone copies the parameters.
func (p *weights[T]) clone() weights[T] { return newWeights(p.W.Clone(), p.B.Clone()) }

// shapes is clone without the storage: matrices of W's and B's shapes
// with no Data, for NetworkOf.ViewParams to point.
func (p *weights[T]) shapes() weights[T] {
	return newWeights(&tensor.Matrix[T]{Rows: p.W.Rows, Cols: p.W.Cols},
		&tensor.Matrix[T]{Rows: p.B.Rows, Cols: p.B.Cols})
}

// narrow is clone with the parameters rounded to float32.
func (p *weights[T]) narrow() weights[float32] {
	return newWeights(tensor.Narrow(p.W), tensor.Narrow(p.B))
}

// grads returns the gradient accumulators, allocating them zeroed the
// first time.
func (p *weights[T]) grads() (dW, dB *tensor.Matrix[T]) {
	if p.dW == nil {
		p.dW = new(tensor.Matrix[T]).Resize(p.W.Rows, p.W.Cols)
		p.dB = new(tensor.Matrix[T]).Resize(p.B.Rows, p.B.Cols)
	}
	return p.dW, p.dB
}

// Params returns {W, B}.
func (p *weights[T]) Params() []*tensor.Matrix[T] { return []*tensor.Matrix[T]{p.W, p.B} }

// Grads returns {dW, dB}, allocating them on first use so a caller that
// caches the slice (NetworkOf.Grads) holds the live accumulators.
func (p *weights[T]) Grads() []*tensor.Matrix[T] {
	dW, dB := p.grads()
	return []*tensor.Matrix[T]{dW, dB}
}

// ZeroGrads clears the gradient accumulators; without any it does nothing.
func (p *weights[T]) ZeroGrads() {
	if p.dW != nil {
		p.dW.Zero()
		p.dB.Zero()
	}
}

// LinearOf is a fully-connected layer computing y = x·W + b, with W
// in×out and B 1×out.
type LinearOf[T tensor.Float] struct {
	weights[T]
}

// NewLinear returns a Linear layer with Xavier-uniform weights and zero
// biases, drawing from rng.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{weights: newWeights(tensor.New(in, out), tensor.New(1, out))}
	tensor.XavierUniform(l.W, in, out, rng)
	return l
}

// In returns the input width of the layer.
func (l *LinearOf[T]) In() int { return l.W.Rows }

// Out returns the output width of the layer.
func (l *LinearOf[T]) Out() int { return l.W.Cols }

// OutputWidth implements Sized.
func (l *LinearOf[T]) OutputWidth() int { return l.W.Cols }

// Forward computes x·W + b for a batch x (rows = samples): one MatMulInto
// plus the in-place broadcast bias add, no temporaries.
func (l *LinearOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	s.in = x
	tensor.MatMulInto(&s.out, x, l.W)
	s.out.AddRowVec(l.B)
	return &s.out
}

// Backward accumulates dW += xᵀ·grad and dB += colsums(grad) — fused into
// the kernels (AddMatMulT1Into/AddColSumsInto), so the pass performs zero
// allocations once s has capacity — and returns grad·Wᵀ, each as need asks.
func (l *LinearOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], need Need) *tensor.Matrix[T] {
	s.forwarded()
	if need&NeedParams != 0 {
		dW, dB := l.grads()
		tensor.AddMatMulT1Into(dW, s.in, grad)
		tensor.AddColSumsInto(dB, grad)
	}
	if need&NeedInput == 0 {
		return nil
	}
	return tensor.MatMulT2Into(&s.dIn, grad, l.W)
}

// Clone returns a deep copy of the layer.
func (l *LinearOf[T]) Clone() LayerOf[T] { return &LinearOf[T]{weights: l.clone()} }

// Narrow returns a float32 copy of the layer.
func (l *LinearOf[T]) Narrow() LayerOf[float32] {
	return &LinearOf[float32]{weights: l.narrow()}
}
