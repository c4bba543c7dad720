package core

import (
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Mixture32 is the float32 serving form of a Mixture: its generators
// narrowed once and its weights kept in float64. Like a Mixture it holds
// no pass state: its float32 latent and forward buffers are the caller's
// SampleWorkspace's.
type Mixture32 struct {
	weights []float64
	gens    []*nn.Net32
}

// Narrow returns the float32 serving form of m.
func (m *Mixture) Narrow() *Mixture32 {
	c := &Mixture32{weights: append([]float64(nil), m.Weights...)}
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
	return sample(ws, m.gens, m.weights, &ws.z32, ws.gen32, n, latentDim, rng)
}
