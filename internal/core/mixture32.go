package core

import (
	"fmt"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Mixture32 is a float32-compiled, inference-only snapshot of a Mixture —
// the serving engine builds one per worker when the float32 tier is
// enabled. Weights and latent draws stay float64 so the RNG stream and
// sample-to-component routing are identical to the float64 path; only the
// generator forward passes run in float32. Outputs therefore agree with
// Mixture.SampleWith to float32 forward-pass precision, not bitwise.
type Mixture32 struct {
	weights []float64
	gens    []*nn.Net32
	outDim  int
}

// CompileMixture32 compiles m's generators into float32 inference
// networks. It fails if any generator contains a layer without a float32
// lowering; callers fall back to serving the float64 mixture.
func CompileMixture32(m *Mixture) (*Mixture32, error) {
	c := &Mixture32{
		weights: append([]float64(nil), m.Weights...),
		gens:    make([]*nn.Net32, len(m.Generators)),
		outDim:  m.OutputDim(),
	}
	for i, g := range m.Generators {
		n32, err := nn.CompileNet32(g)
		if err != nil {
			return nil, fmt.Errorf("core: compile generator rank %d: %w", m.Ranks[i], err)
		}
		c.gens[i] = n32
	}
	return c, nil
}

// OutputDim returns the per-sample output length of the mixture.
func (m *Mixture32) OutputDim() int { return m.outDim }

// SampleWith draws n samples exactly as Mixture.SampleWith does —
// identical RNG consumption (n Float64 routing draws, then one float64
// GaussianFill per populated component in rank order) — but runs each
// generator forward in float32, widening the rows into the float64
// output batch so callers (HTTP encoding, metrics) are unchanged. The
// returned matrix aliases ws.out and is only valid until the next call
// on the same workspace.
func (m *Mixture32) SampleWith(ws *SampleWorkspace, n, latentDim int, rng *tensor.RNG) *tensor.Mat {
	out := ws.out.Resize(n, m.outDim)
	if n <= 0 {
		return out
	}
	counts, starts, order := routeSamples(ws, m.weights, n, rng)
	for j, g := range m.gens {
		if counts[j] == 0 {
			continue
		}
		z := ws.z.Resize(counts[j], latentDim)
		tensor.GaussianFill(z, 0, 1, rng)
		imgs := g.Forward(tensor.NarrowInto(&ws.z32, z))
		for k := 0; k < counts[j]; k++ {
			drow := out.Row(order[starts[j]+k])
			for c, v := range imgs.Row(k) {
				drow[c] = float64(v)
			}
		}
	}
	return out
}
