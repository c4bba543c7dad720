package nn

import (
	"fmt"

	"cellgan/internal/tensor"
)

// activation implements the parameter-free parts of LayerOf.
type activation[T tensor.Float] struct{}

func (activation[T]) Params() []*tensor.Matrix[T] { return nil }
func (activation[T]) Grads() []*tensor.Matrix[T]  { return nil }
func (activation[T]) ZeroGrads()                  {}

// b2i is 1 for true, else 0: a flag set, so the selects below never branch.
func b2i(b bool) (i int) {
	if b {
		i = 1
	}
	return
}

// TanhOf is the hyperbolic-tangent activation (the paper's Table I choice).
type TanhOf[T tensor.Float] struct{ activation[T] }

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise, in float64 at either width.
func (t *TanhOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	s.in = x
	out := s.out.Resize(x.Rows, x.Cols)
	tensor.TanhInto(out.Data, x.Data)
	return out
}

// Backward returns grad ⊙ (1 - tanh²), read off the cached output.
func (t *TanhOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], _ Need) *tensor.Matrix[T] {
	s.forwarded()
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, y := range s.out.Data {
		dst.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return dst
}

// Clone returns a fresh Tanh layer.
func (t *TanhOf[T]) Clone() LayerOf[T] { return &TanhOf[T]{} }

// Narrow returns a fresh float32 Tanh layer.
func (t *TanhOf[T]) Narrow() LayerOf[float32] { return &TanhOf[float32]{} }

// SigmoidOf is the logistic activation.
type SigmoidOf[T tensor.Float] struct{ activation[T] }

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function element-wise, in float64 at
// either width.
func (g *SigmoidOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	s.in = x
	out := s.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = T(tensor.Sigmoid(float64(v)))
	}
	return out
}

// Backward returns grad ⊙ σ(1-σ), read off the cached output.
func (g *SigmoidOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], _ Need) *tensor.Matrix[T] {
	s.forwarded()
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, y := range s.out.Data {
		dst.Data[i] = grad.Data[i] * (y * (1 - y))
	}
	return dst
}

// Clone returns a fresh Sigmoid layer.
func (g *SigmoidOf[T]) Clone() LayerOf[T] { return &SigmoidOf[T]{} }

// Narrow returns a fresh float32 Sigmoid layer.
func (g *SigmoidOf[T]) Narrow() LayerOf[float32] { return &SigmoidOf[float32]{} }

// LeakyReLUOf is max(x, alpha·x); Lipizzaner's discriminators use
// alpha=0.2.
type LeakyReLUOf[T tensor.Float] struct {
	activation[T]
	Alpha T
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope, which
// must lie in (0, 1]: only there does max(x, alpha·x) have Backward's slope.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("nn: LeakyReLU slope %v outside (0, 1]", alpha))
	}
	return &LeakyReLU{Alpha: alpha}
}

// Forward applies the leaky rectifier element-wise.
func (l *LeakyReLUOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	s.in = x
	out, alpha := s.out.Resize(x.Rows, x.Cols), l.Alpha
	for i, v := range x.Data {
		out.Data[i] = max(v, alpha*v)
	}
	return out
}

// Backward scales grad by alpha where the input was negative (not −0, not
// NaN), and passes it through elsewhere.
func (l *LeakyReLUOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], _ Need) *tensor.Matrix[T] {
	s.forwarded()
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, v := range s.in.Data {
		g := grad.Data[i]
		dst.Data[i] = [2]T{g, g * l.Alpha}[b2i(v < 0)]
	}
	return dst
}

// Clone returns a fresh LeakyReLU with the same slope.
func (l *LeakyReLUOf[T]) Clone() LayerOf[T] { return &LeakyReLUOf[T]{Alpha: l.Alpha} }

// Narrow returns a fresh float32 LeakyReLU with the slope rounded.
func (l *LeakyReLUOf[T]) Narrow() LayerOf[float32] {
	return &LeakyReLUOf[float32]{Alpha: float32(l.Alpha)}
}

// ReLUOf is the plain rectifier.
type ReLUOf[T tensor.Float] struct{ activation[T] }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise. A NaN input stays NaN, as in
// every other layer and as Backward, which lets its gradient through.
func (r *ReLUOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	s.in = x
	out := s.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = [2]T{v, 0}[b2i(v <= 0)]
	}
	return out
}

// Backward masks grad where the input was not positive.
func (r *ReLUOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], _ Need) *tensor.Matrix[T] {
	s.forwarded()
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, v := range s.in.Data {
		dst.Data[i] = [2]T{grad.Data[i], 0}[b2i(v <= 0)]
	}
	return dst
}

// Clone returns a fresh ReLU.
func (r *ReLUOf[T]) Clone() LayerOf[T] { return &ReLUOf[T]{} }

// Narrow returns a fresh float32 ReLU.
func (r *ReLUOf[T]) Narrow() LayerOf[float32] { return &ReLUOf[float32]{} }
