package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cellgan/internal/tensor"
)

// Optimizer updates network parameters from accumulated gradients.
// Implementations keep per-parameter state; one optimizer instance belongs
// to exactly one network.
type Optimizer interface {
	// Step applies one update using the network's current gradients.
	Step(n *Network)
	// LearningRate returns the current base learning rate.
	LearningRate() float64
	// SetLearningRate replaces the base learning rate. The coevolutionary
	// hyperparameter mutation calls this every training iteration.
	SetLearningRate(lr float64)
	// Reset clears any accumulated moment estimates (used after a genome
	// is replaced wholesale by a neighbour's).
	Reset()
	// StateBinary serialises the optimizer's internal state (moments,
	// step counters, learning rate) for checkpointing.
	StateBinary() ([]byte, error)
	// RestoreBinary reverses StateBinary for an optimizer that will step
	// n. State whose buffers do not match n's parameters in count and
	// shape is refused and leaves the optimizer as it was.
	RestoreBinary(n *Network, data []byte) error
}

// decodeMoments decodes one per-parameter buffer list of an optimizer
// state and holds it to the parameters it will be stepped against: none at
// all (the optimizer never stepped) or one matrix per parameter, of that
// parameter's shape — Step indexes the buffers by the parameters' lengths.
func decodeMoments(data []byte, params []*tensor.Mat) ([]*tensor.Mat, []byte, error) {
	ms, rest, err := tensor.DecodeMats(data)
	if err != nil || len(ms) == 0 {
		return nil, rest, err
	}
	if len(ms) != len(params) {
		return nil, nil, fmt.Errorf("%d matrices for %d parameters", len(ms), len(params))
	}
	for i, p := range params {
		if ms[i].Rows != p.Rows || ms[i].Cols != p.Cols {
			return nil, nil, fmt.Errorf("matrix %d is %d×%d, its parameter %d×%d",
				i, ms[i].Rows, ms[i].Cols, p.Rows, p.Cols)
		}
	}
	return ms, rest, nil
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	// velocity is the momentum buffer; inUse is false while it holds no
	// live values — before the first momentum Step and after Reset, which
	// keeps the storage for that Step to zero.
	velocity []*tensor.Mat
	inUse    bool
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step applies v = μv - lr·g; p += v (or the memoryless update when μ=0).
func (s *SGD) Step(n *Network) {
	params := n.Params()
	grads := n.Grads()
	if s.Momentum == 0 {
		for i, p := range params {
			p.AddScaled(-s.LR, grads[i])
		}
		return
	}
	s.velocity = zeroedUnless(s.inUse, s.velocity, params)
	s.inUse = true
	for i, p := range params {
		v := s.velocity[i]
		v.Scale(s.Momentum)
		v.AddScaled(-s.LR, grads[i])
		p.Add(v)
	}
}

// LearningRate returns the current learning rate.
func (s *SGD) LearningRate() float64 { return s.LR }

// SetLearningRate replaces the learning rate.
func (s *SGD) SetLearningRate(lr float64) { s.LR = lr }

// Reset clears the momentum buffers, keeping their storage.
func (s *SGD) Reset() { s.inUse = false }

// StateBinary serialises the learning rate, momentum and velocity
// buffers; a reset optimizer has none.
func (s *SGD) StateBinary() ([]byte, error) {
	velocity := live(s.inUse, s.velocity)
	out := make([]byte, 0, 16+tensor.MatsSize(velocity))
	out = appendF64(out, s.LR, s.Momentum)
	return tensor.AppendMats(out, velocity), nil
}

// RestoreBinary reverses StateBinary.
func (s *SGD) RestoreBinary(n *Network, data []byte) error {
	r := *s
	data, err := takeF64(data, &r.LR, &r.Momentum)
	if err != nil {
		return fmt.Errorf("nn: SGD state: %w", err)
	}
	if r.velocity, _, err = decodeMoments(data, n.Params()); err != nil {
		return fmt.Errorf("nn: SGD velocity: %w", err)
	}
	r.inUse = r.velocity != nil
	*s = r
	return nil
}

// Adam implements the Adam optimizer (Kingma & Ba) — the paper's Table I
// optimizer with initial learning rate 2e-4.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// t is the step count since the last Reset; at 0 the moment
	// estimates m and v hold no live values, only storage kept for the
	// next Step to zero.
	t    int
	m, v []*tensor.Mat
}

// NewAdam returns an Adam optimizer with the conventional β₁=0.9,
// β₂=0.999, ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step(n *Network) {
	params := n.Params()
	grads := n.Grads()
	if len(a.m) != len(params) {
		a.t = 0
	}
	a.m = zeroedUnless(a.t > 0, a.m, params)
	a.v = zeroedUnless(a.t > 0, a.v, params)
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		tensor.AdamStep(p.Data, a.m[i].Data, a.v[i].Data, grads[i].Data, a.Beta1, a.Beta2, c1, c2, a.LR, a.Epsilon)
	}
}

// LearningRate returns the current learning rate.
func (a *Adam) LearningRate() float64 { return a.LR }

// SetLearningRate replaces the learning rate.
func (a *Adam) SetLearningRate(lr float64) { a.LR = lr }

// Reset clears moment estimates and the step counter, keeping the
// moments' storage.
func (a *Adam) Reset() { a.t = 0 }

// StateBinary serialises the hyperparameters, step counter and both
// moment-estimate buffers; a reset optimizer has none.
func (a *Adam) StateBinary() ([]byte, error) {
	m, v := live(a.t > 0, a.m), live(a.t > 0, a.v)
	out := make([]byte, 0, 40+tensor.MatsSize(m)+tensor.MatsSize(v))
	out = appendF64(out, a.LR, a.Beta1, a.Beta2, a.Epsilon, float64(a.t))
	return tensor.AppendMats(tensor.AppendMats(out, m), v), nil
}

// RestoreBinary reverses StateBinary.
func (a *Adam) RestoreBinary(n *Network, data []byte) error {
	r := *a
	var tf float64
	data, err := takeF64(data, &r.LR, &r.Beta1, &r.Beta2, &r.Epsilon, &tf)
	if err != nil {
		return fmt.Errorf("nn: Adam state: %w", err)
	}
	r.t = int(tf)
	params := n.Params()
	if r.m, data, err = decodeMoments(data, params); err != nil {
		return fmt.Errorf("nn: Adam first moments: %w", err)
	}
	if r.v, _, err = decodeMoments(data, params); err != nil {
		return fmt.Errorf("nn: Adam second moments: %w", err)
	}
	if (r.m == nil) != (r.v == nil) {
		return fmt.Errorf("nn: Adam state: %d first-moment matrices, %d second-moment", len(r.m), len(r.v))
	}
	*a = r
	return nil
}

// zeroedUnless returns per-parameter buffers for params: bufs as they
// are when inUse, else zeroed — bufs' own storage when it matches params
// in count, fresh matrices otherwise.
func zeroedUnless(inUse bool, bufs, params []*tensor.Mat) []*tensor.Mat {
	if len(bufs) != len(params) {
		bufs = make([]*tensor.Mat, len(params))
		for i, p := range params {
			bufs[i] = tensor.New(p.Rows, p.Cols)
		}
		return bufs
	}
	if !inUse {
		for _, b := range bufs {
			b.Zero()
		}
	}
	return bufs
}

// live returns bufs when they hold live values, else none.
func live(inUse bool, bufs []*tensor.Mat) []*tensor.Mat {
	if !inUse {
		return nil
	}
	return bufs
}

func appendF64(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// takeF64 fills the fields from the front of data and returns the rest.
func takeF64(data []byte, fields ...*float64) ([]byte, error) {
	if len(data) < 8*len(fields) {
		return nil, io.ErrUnexpectedEOF
	}
	for i, f := range fields {
		*f = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*len(fields):], nil
}

// ClipGrads scales the network's gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. A non-positive maxNorm is a
// no-op. Gradient clipping guards the GAN updates against the gradient
// explosion pathology discussed in the paper's introduction.
func ClipGrads(n *Network, maxNorm float64) float64 {
	s := 0.0
	grads := n.Grads()
	for _, g := range grads {
		for _, v := range g.Data {
			s += v * v
		}
	}
	norm := math.Sqrt(s)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, g := range grads {
			g.Scale(scale)
		}
	}
	return norm
}
