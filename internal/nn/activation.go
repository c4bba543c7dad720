package nn

import (
	"math"

	"cellgan/internal/tensor"
)

// activation implements the parameter-free parts of Layer.
type activation struct{ keptScratch }

func (activation) Params() []*tensor.Mat { return nil }
func (activation) Grads() []*tensor.Mat  { return nil }
func (activation) ZeroGrads()            {}

// Tanh is the hyperbolic-tangent activation (the paper's Table I choice).
type Tanh struct{ activation }

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat {
	s = t.begin(s, x)
	return tensor.ApplyInto(&s.out, x, math.Tanh)
}

// Backward returns grad ⊙ (1 - tanh²), read off the cached output.
func (t *Tanh) Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat {
	s = t.resume(s)
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, y := range s.out.Data {
		dst.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return dst
}

// Clone returns a fresh Tanh layer.
func (t *Tanh) Clone() Layer { return &Tanh{} }

// Sigmoid is the logistic activation.
type Sigmoid struct{ activation }

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// sigmoid is a numerically stable logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Forward applies the logistic function element-wise.
func (g *Sigmoid) Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat {
	s = g.begin(s, x)
	return tensor.ApplyInto(&s.out, x, sigmoid)
}

// Backward returns grad ⊙ σ(1-σ), read off the cached output.
func (g *Sigmoid) Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat {
	s = g.resume(s)
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, y := range s.out.Data {
		dst.Data[i] = grad.Data[i] * (y * (1 - y))
	}
	return dst
}

// Clone returns a fresh Sigmoid layer.
func (g *Sigmoid) Clone() Layer { return &Sigmoid{} }

// LeakyReLU is max(x, alpha·x); Lipizzaner's discriminators use alpha=0.2.
type LeakyReLU struct {
	activation
	Alpha float64
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier element-wise.
func (l *LeakyReLU) Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat {
	s = l.begin(s, x)
	out, alpha := s.out.Resize(x.Rows, x.Cols), l.Alpha
	for i, v := range x.Data {
		if v >= 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = alpha * v
		}
	}
	return out
}

// Backward scales grad by 1 where the input was non-negative, alpha
// elsewhere.
func (l *LeakyReLU) Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat {
	s = l.resume(s)
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, v := range s.in.Data {
		g := grad.Data[i]
		if v < 0 {
			g *= l.Alpha
		}
		dst.Data[i] = g
	}
	return dst
}

// Clone returns a fresh LeakyReLU with the same slope.
func (l *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// ReLU is the plain rectifier.
type ReLU struct{ activation }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise. A NaN input stays NaN, as in
// every other layer and as Backward, which lets its gradient through.
func (r *ReLU) Forward(s *LayerScratch, x *tensor.Mat) *tensor.Mat {
	s = r.begin(s, x)
	out := s.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v <= 0 {
			v = 0
		}
		out.Data[i] = v
	}
	return out
}

// Backward masks grad where the input was not positive.
func (r *ReLU) Backward(s *LayerScratch, grad *tensor.Mat) *tensor.Mat {
	s = r.resume(s)
	dst := s.dIn.Resize(grad.Rows, grad.Cols)
	for i, v := range s.in.Data {
		if v <= 0 {
			dst.Data[i] = 0
		} else {
			dst.Data[i] = grad.Data[i]
		}
	}
	return dst
}

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return &ReLU{} }
