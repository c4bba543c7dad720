package core

import (
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Mixture32 is the float32 serving form of a Mixture: its generators
// narrowed once, its weights kept in float64, and — private to one
// goroutine, like a cloned Mixture — its float32 latent and forward
// buffers.
type Mixture32 struct {
	weights []float64
	gens    []*nn.Net32
	z       tensor.Mat32             // latent batch
	fwd     *nn.WorkspaceOf[float32] // generator forward buffers (forward-only)
}

// Narrow returns the float32 serving form of m.
func (m *Mixture) Narrow() *Mixture32 {
	c := &Mixture32{
		weights: append([]float64(nil), m.Weights...),
		fwd:     nn.NewForwardWorkspace(new(nn.ForwardPairOf[float32])),
	}
	for _, g := range m.Generators {
		c.gens = append(c.gens, g.Narrow())
	}
	return c
}

// SampleWith is Mixture.SampleWith at float32: the same routing and RNG
// consumption, latents drawn in float64 and rounded, and the rows widened
// into the float64 output batch so callers (HTTP encoding, metrics) are
// unchanged. It agrees with Mixture.SampleWith to float32 precision.
func (m *Mixture32) SampleWith(ws *SampleWorkspace, n, latentDim int, rng *tensor.RNG) *tensor.Mat {
	return sample(ws, m.gens, m.weights, &m.z, m.fwd, n, latentDim, rng)
}
