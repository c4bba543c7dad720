package core

import (
	"fmt"
	"sort"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Mixture is a weighted ensemble of generators — the generative model a
// neighbourhood ultimately returns. Lipizzaner optimises the weights with
// a (1+1)-ES whose mutation scale is the paper's "mixture mutation scale"
// (Table I: 0.01).
type Mixture struct {
	// Ranks lists the sub-population members in ascending rank order.
	Ranks []int
	// Generators holds one generator per rank, aligned with Ranks.
	Generators []*nn.Network
	// Weights are the mixture coefficients, aligned with Ranks; they are
	// non-negative and sum to 1.
	Weights []float64
}

// NewMixture builds a uniform mixture over the given generators keyed by
// rank.
func NewMixture(gens map[int]*nn.Network) (*Mixture, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("core: mixture needs at least one generator")
	}
	m := &Mixture{}
	for r := range gens {
		m.Ranks = append(m.Ranks, r)
	}
	sort.Ints(m.Ranks)
	m.Generators = make([]*nn.Network, len(m.Ranks))
	m.Weights = make([]float64, len(m.Ranks))
	for i, r := range m.Ranks {
		m.Generators[i] = gens[r]
		m.Weights[i] = 1 / float64(len(m.Ranks))
	}
	return m, nil
}

// normalizeWeights projects w onto the probability simplex by clamping
// negatives to zero and rescaling; an all-zero vector becomes uniform.
func normalizeWeights(w []float64) {
	sum := 0.0
	for i, v := range w {
		if v < 0 {
			w[i] = 0
		} else {
			sum += v
		}
	}
	if sum == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= sum
	}
}

// SampleWorkspace owns every buffer the mixture sampling, fitness and
// weight-evolution paths need: the latent and output matrices, the
// per-sample routing slices, the forward-only nn workspaces for generator
// and discriminator forwards at float64 and for a Mixture32's generators
// at float32, and the loss scratch. One workspace serves one goroutine;
// the mixture it samples holds no pass state, so any number of goroutines
// may sample one Mixture or Mixture32, each on its own workspace.
type SampleWorkspace struct {
	gen   *nn.Workspace            // generator forward buffers (forward-only)
	disc  *nn.Workspace            // discriminator forward buffers (fitness, forward-only)
	gen32 *nn.WorkspaceOf[float32] // Mixture32 generator forward buffers (forward-only)
	z     tensor.Mat               // per-component latent batch
	z32   tensor.Mat32             // the same at float32
	out   tensor.Mat               // assembled sample batch

	loss lossScratch // fitness target + discarded gradient

	assign, counts, starts, idx, order []int
	proposal                           []float64
}

// NewSampleWorkspace returns an empty workspace; buffers grow on first use.
func NewSampleWorkspace() *SampleWorkspace { return sampleWorkspaceOn(new(nn.ForwardPair)) }

// sampleWorkspaceOn returns an empty workspace whose generator and
// discriminator forwards run their intermediate layers on p.
func sampleWorkspaceOn(p *nn.ForwardPair) *SampleWorkspace {
	return &SampleWorkspace{gen: nn.NewForwardWorkspace(p), disc: nn.NewForwardWorkspace(p),
		gen32: nn.NewForwardWorkspace(new(nn.ForwardPairOf[float32]))}
}

// intsFor resizes *buf to n elements, reallocating only on capacity
// growth, and returns it. Element values are unspecified.
func intsFor(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatsFor is intsFor for float64 slices.
func floatsFor(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Sample draws n latent vectors and routes each through a generator chosen
// according to the mixture weights, returning the n×Pixels batch in fresh
// buffers.
func (m *Mixture) Sample(n, latentDim int, rng *tensor.RNG) *tensor.Mat {
	return m.SampleWith(NewSampleWorkspace(), n, latentDim, rng)
}

// SampleWith is Sample drawing every buffer from ws. The returned matrix
// aliases ws.out and is only valid until the next SampleWith call on the
// same workspace. The RNG consumption is n Float64 draws, then one
// GaussianFill per populated component in rank order.
func (m *Mixture) SampleWith(ws *SampleWorkspace, n, latentDim int, rng *tensor.RNG) *tensor.Mat {
	return sample(ws, m.Generators, m.Weights, &ws.z, ws.gen, n, latentDim, rng)
}

// sample is SampleWith at either generator width: route the n samples,
// then per populated component draw its latents into z (in float64,
// rounded to T), run the generator forward on fwd and scatter its rows
// into the float64 output batch in ws.
func sample[T tensor.Float](ws *SampleWorkspace, gens []*nn.NetworkOf[T], weights []float64,
	z *tensor.Matrix[T], fwd *nn.WorkspaceOf[T], n, latentDim int, rng *tensor.RNG) *tensor.Mat {
	out := ws.out.Resize(n, gens[0].OutputWidth())
	if n <= 0 {
		return out
	}
	counts, starts, order := routeSamples(ws, weights, n, rng)
	for j, g := range gens {
		if counts[j] == 0 {
			continue
		}
		zj := z.Resize(counts[j], latentDim)
		tensor.GaussianFill(zj, 0, 1, rng)
		imgs := g.ForwardWS(fwd, zj)
		for k := 0; k < counts[j]; k++ {
			drow := out.Row(order[starts[j]+k])
			for c, v := range imgs.Row(k) {
				drow[c] = float64(v)
			}
		}
	}
	return out
}

// routeSamples assigns each of n samples to a component by weight (one
// rng.Float64 per sample, in order) and computes the grouped layout:
// counts[j] samples for component j, packed starting at starts[j], with
// order[starts[j]+k] giving the output row of the k-th grouped sample.
// All slices alias ws buffers.
func routeSamples(ws *SampleWorkspace, weights []float64, n int, rng *tensor.RNG) (counts, starts, order []int) {
	assign := intsFor(&ws.assign, n)
	counts = intsFor(&ws.counts, len(weights))
	for j := range counts {
		counts[j] = 0
	}
	for i := range assign {
		u := rng.Float64()
		acc := 0.0
		comp := len(weights) - 1
		for j, w := range weights {
			acc += w
			if u < acc {
				comp = j
				break
			}
		}
		assign[i] = comp
		counts[comp]++
	}
	offset := 0
	starts = intsFor(&ws.starts, len(weights))
	for j := range starts {
		starts[j] = offset
		offset += counts[j]
	}
	order = intsFor(&ws.order, n) // output row for each grouped sample
	idx := intsFor(&ws.idx, len(weights))
	copy(idx, starts)
	for i, comp := range assign {
		order[idx[comp]] = i
		idx[comp]++
	}
	return counts, starts, order
}

// OutputDim returns the per-sample output length of the mixture's
// generators — the flattened image dimension serving callers decode.
func (m *Mixture) OutputDim() int { return m.Generators[0].OutputWidth() }

// Clone returns a deep copy of the mixture, for a caller that goes on to
// change one copy (its weights or members) while another is read.
func (m *Mixture) Clone() *Mixture {
	c := &Mixture{
		Ranks:      append([]int(nil), m.Ranks...),
		Generators: make([]*nn.Network, len(m.Generators)),
		Weights:    append([]float64(nil), m.Weights...),
	}
	for i, g := range m.Generators {
		c.Generators[i] = g.Clone()
	}
	return c
}

// FitnessWS scores the mixture against a discriminator, drawing every
// buffer from ws: the non-saturating generator loss of mixture samples
// (lower is better).
func (m *Mixture) FitnessWS(ws *SampleWorkspace, disc *nn.Network, n, latentDim int, rng *tensor.RNG) float64 {
	fake := m.SampleWith(ws, n, latentDim, rng)
	logits := disc.ForwardWS(ws.disc, fake)
	ones := ws.loss.full(logits.Rows, logits.Cols, 1)
	loss, _ := nn.BCEWithLogitsLossInto(&ws.loss.grad, logits, ones)
	return loss
}

// EvolveWeightsWS performs one (1+1)-ES step, drawing every buffer from
// ws: propose w' = Π(w + N(0, σ)), accept if the proposal's fitness does
// not worsen. It returns the accepted fitness and whether the proposal
// was accepted. On acceptance the previous Weights slice is recycled as
// the workspace's next proposal buffer, so callers must not retain
// references to Mixture.Weights across calls on a reused workspace.
func (m *Mixture) EvolveWeightsWS(ws *SampleWorkspace, disc *nn.Network, sigma float64, n, latentDim int, rng *tensor.RNG) (float64, bool) {
	// Evaluate parent and child on a common RNG-derived sample stream to
	// reduce selection noise: each evaluation uses its own split.
	parentFit := m.FitnessWS(ws, disc, n, latentDim, rng.Split())
	proposal := floatsFor(&ws.proposal, len(m.Weights))
	copy(proposal, m.Weights)
	for i := range proposal {
		proposal[i] += rng.NormFloat64() * sigma
	}
	normalizeWeights(proposal)
	old := m.Weights
	m.Weights = proposal
	childFit := m.FitnessWS(ws, disc, n, latentDim, rng.Split())
	if childFit <= parentFit {
		// The displaced parent slice becomes the next proposal buffer;
		// ws.proposal must never alias the live m.Weights.
		ws.proposal = old
		return childFit, true
	}
	m.Weights = old
	return parentFit, false
}

// UpdateMembers replaces the mixture's generator set, preserving weights
// of ranks that persist and assigning new members the mean weight before
// renormalising.
func (m *Mixture) UpdateMembers(gens map[int]*nn.Network) error {
	if len(gens) == 0 {
		return fmt.Errorf("core: mixture needs at least one generator")
	}
	oldW := make(map[int]float64, len(m.Ranks))
	for i, r := range m.Ranks {
		oldW[r] = m.Weights[i]
	}
	mean := 1.0 / float64(len(gens))
	m.Ranks = m.Ranks[:0]
	for r := range gens {
		m.Ranks = append(m.Ranks, r)
	}
	sort.Ints(m.Ranks)
	m.Generators = make([]*nn.Network, len(m.Ranks))
	m.Weights = make([]float64, len(m.Ranks))
	for i, r := range m.Ranks {
		m.Generators[i] = gens[r]
		if w, ok := oldW[r]; ok {
			m.Weights[i] = w
		} else {
			m.Weights[i] = mean
		}
	}
	normalizeWeights(m.Weights)
	return nil
}
