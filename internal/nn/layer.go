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
// a layer value holds parameters and gradient accumulators only. Training
// and serving loops hand each network a Workspace (one LayerScratch per
// layer slot, reused across iterations, zero steady-state allocations);
// Network.Forward/Backward are the same path with fresh scratch per pass.
// Optimizers consume (params, grads) pairs.
package nn

import (
	"cellgan/internal/tensor"
)

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for a batch (rows = samples) into
	// s and returns it; the result aliases s and is valid until the next
	// pass through s. A nil s allocates a fresh scratch, which the layer
	// keeps for the matching Backward — the allocating convenience form,
	// one pass in flight per layer value.
	Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat
	// Backward receives ∂L/∂output for the most recent Forward on s (nil:
	// on the kept scratch), accumulates parameter gradients, and returns
	// ∂L/∂input, which aliases s.
	Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat
	// Params returns the trainable parameter matrices (possibly empty).
	Params() []*tensor.Mat
	// Grads returns the gradient accumulators, aligned with Params.
	Grads() []*tensor.Mat
	// ZeroGrads clears the gradient accumulators.
	ZeroGrads()
	// Clone returns an independent copy of the layer (parameters copied,
	// no scratch shared).
	Clone() Layer
}

// Sized is implemented by layers with a fixed output width, letting
// callers determine a network's output dimension without a probe forward
// pass.
type Sized interface {
	// OutputWidth returns the per-sample output length of the layer.
	OutputWidth() int
}

// Linear is a fully-connected layer computing y = x·W + b.
type Linear struct {
	W *tensor.Mat // in×out
	B *tensor.Mat // 1×out

	dW *tensor.Mat
	dB *tensor.Mat

	keptScratch
}

// NewLinear returns a Linear layer with Xavier-uniform weights and zero
// biases, drawing from rng.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		W:  tensor.New(in, out),
		B:  tensor.New(1, out),
		dW: tensor.New(in, out),
		dB: tensor.New(1, out),
	}
	tensor.XavierUniform(l.W, in, out, rng)
	return l
}

// In returns the input width of the layer.
func (l *Linear) In() int { return l.W.Rows }

// Out returns the output width of the layer.
func (l *Linear) Out() int { return l.W.Cols }

// OutputWidth implements Sized.
func (l *Linear) OutputWidth() int { return l.W.Cols }

// Forward computes x·W + b for a batch x (rows = samples): one MatMulInto
// plus the in-place broadcast bias add, no temporaries.
func (l *Linear) Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat {
	s = l.begin(s, x)
	tensor.MatMulInto(&s.out, x, l.W)
	s.out.AddRowVec(l.B)
	return &s.out
}

// Backward accumulates dW += xᵀ·grad and dB += colsums(grad) — fused into
// the kernels (AddMatMulT1Into/AddColSumsInto), so the pass performs zero
// allocations once s has capacity — and returns grad·Wᵀ.
func (l *Linear) Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat {
	s = l.resume(s)
	tensor.AddMatMulT1Into(l.dW, s.in, grad)
	tensor.AddColSumsInto(l.dB, grad)
	return tensor.MatMulT2Into(&s.dIn, grad, l.W)
}

// Params returns {W, B}.
func (l *Linear) Params() []*tensor.Mat { return []*tensor.Mat{l.W, l.B} }

// Grads returns {dW, dB}.
func (l *Linear) Grads() []*tensor.Mat { return []*tensor.Mat{l.dW, l.dB} }

// ZeroGrads clears the accumulated gradients.
func (l *Linear) ZeroGrads() {
	l.dW.Zero()
	l.dB.Zero()
}

// Clone returns a deep copy of the layer.
func (l *Linear) Clone() Layer {
	return &Linear{
		W:  l.W.Clone(),
		B:  l.B.Clone(),
		dW: tensor.New(l.W.Rows, l.W.Cols),
		dB: tensor.New(1, l.B.Cols),
	}
}
