// Package metrics implements generator-quality measures for the
// coevolutionary GAN training: an inception-score analogue computed from a
// classifier trained on the synthetic digit dataset, a Fréchet feature
// distance (FID analogue with diagonal covariance), mode-coverage
// statistics for diagnosing mode collapse, and total-variation distance
// from the uniform class distribution.
//
// The paper selects the final generative mixture by fitness "e.g.,
// inception score" (§II-B). The original Inception network is unavailable
// offline; any well-calibrated 10-class classifier yields the same
// exp(E KL(p(y|x) ‖ p(y))) functional, which is what the selection step
// needs.
package metrics

import (
	"fmt"
	"math"

	"cellgan/internal/dataset"
	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// Classifier is a digit classifier whose outputs back the quality metrics.
type Classifier struct {
	net *nn.Network
	// featureCut is the layer index after which activations are taken as
	// the feature embedding for the Fréchet distance.
	featureCut int
}

// ClassifierOptions tunes TrainClassifier.
type ClassifierOptions struct {
	// Hidden is the width of the single hidden layer.
	Hidden int
	// TrainSamples is how many dataset samples to train on.
	TrainSamples int
	// Epochs is the number of passes over the training samples.
	Epochs int
	// BatchSize is the mini-batch size.
	BatchSize int
	// LearningRate is the Adam learning rate.
	LearningRate float64
}

// DefaultClassifierOptions returns settings that reach high accuracy on
// the synthetic digits in a few seconds of CPU time.
func DefaultClassifierOptions() ClassifierOptions {
	return ClassifierOptions{Hidden: 64, TrainSamples: 3000, Epochs: 4, BatchSize: 50, LearningRate: 0.002}
}

// TrainClassifier fits a softmax MLP (Pixels → Hidden → 10) on ds.
func TrainClassifier(ds *dataset.Dataset, opts ClassifierOptions, rng *tensor.RNG) (*Classifier, error) {
	if opts.Hidden <= 0 || opts.TrainSamples <= 0 || opts.Epochs <= 0 || opts.BatchSize <= 0 {
		return nil, fmt.Errorf("metrics: invalid classifier options %+v", opts)
	}
	if opts.TrainSamples > ds.N {
		opts.TrainSamples = ds.N
	}
	net := nn.MLP([]int{dataset.Pixels, opts.Hidden, dataset.NumClasses},
		func() nn.Layer { return nn.NewTanh() }, nil, rng)
	opt := nn.NewAdam(opts.LearningRate)
	sub := ds.WithSize(opts.TrainSamples)
	loader := dataset.NewLoader(sub, opts.BatchSize, rng.Split())
	steps := opts.Epochs * loader.BatchesPerEpoch()
	ws := nn.NewWorkspace()
	for s := 0; s < steps; s++ {
		x, labels := loader.Next()
		net.ZeroGrads()
		logits := net.ForwardWS(ws, x)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		net.BackwardWS(ws, grad)
		opt.Step(net)
	}
	// Features are the activations after the hidden tanh (layer index 1).
	return &Classifier{net: net, featureCut: 2}, nil
}

// forward runs x through layers on a forward-only workspace of its own, so
// the result is the caller's and one classifier serves any number of
// goroutines at once.
func forward(layers []nn.Layer, x *tensor.Mat) *tensor.Mat {
	return nn.NewNetwork(layers...).ForwardWS(nn.NewForwardWorkspace(new(nn.ForwardPair)), x)
}

// Logits returns the raw class scores for a batch of images.
func (c *Classifier) Logits(x *tensor.Mat) *tensor.Mat { return forward(c.net.Layers, x) }

// Probs returns row-wise class probabilities for a batch of images.
func (c *Classifier) Probs(x *tensor.Mat) *tensor.Mat { return nn.Softmax(c.Logits(x)) }

// Features returns the hidden-layer embedding used by the Fréchet
// distance.
func (c *Classifier) Features(x *tensor.Mat) *tensor.Mat {
	return forward(c.net.Layers[:min(c.featureCut, len(c.net.Layers))], x)
}

// Accuracy evaluates the classifier on the first n samples of ds.
func (c *Classifier) Accuracy(ds *dataset.Dataset, n int) float64 {
	if n > ds.N {
		n = ds.N
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, labels := ds.Batch(idx)
	return nn.Accuracy(c.Logits(x), labels)
}

// InceptionScore computes exp(E_x KL(p(y|x) ‖ p(y))) from a batch of
// per-sample class probabilities (rows sum to 1). Higher is better; the
// score is 1 for a constant-class generator and NumClasses for an ideal
// confident, uniform-over-classes one.
func InceptionScore(probs *tensor.Mat) float64 {
	if probs.Rows == 0 {
		return 0
	}
	k := probs.Cols
	marginal := make([]float64, k)
	for i := 0; i < probs.Rows; i++ {
		for j, v := range probs.Row(i) {
			marginal[j] += v / float64(probs.Rows)
		}
	}
	const eps = 1e-12
	klSum := 0.0
	for i := 0; i < probs.Rows; i++ {
		for j, p := range probs.Row(i) {
			if p > eps {
				klSum += p * math.Log(p/math.Max(marginal[j], eps))
			}
		}
	}
	return math.Exp(klSum / float64(probs.Rows))
}

// FrechetDiag computes a Fréchet distance between two feature batches
// using per-dimension (diagonal-covariance) Gaussian fits:
// ‖μ₁-μ₂‖² + Σ_d (σ₁d² + σ₂d² − 2·σ₁d·σ₂d). It is zero for identical
// distributions and grows as the generated features drift from the real
// ones. The full-covariance FID needs a matrix square root; the diagonal
// form preserves the ranking behaviour the experiments need and is exact
// when features are uncorrelated.
func FrechetDiag(a, b *tensor.Mat) (float64, error) {
	if a.Cols != b.Cols {
		return 0, fmt.Errorf("metrics: feature dims differ: %d vs %d", a.Cols, b.Cols)
	}
	if a.Rows < 2 || b.Rows < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 samples per side, got %d and %d", a.Rows, b.Rows)
	}
	d := a.Cols
	meanVar := func(m *tensor.Mat) ([]float64, []float64) {
		mu := make([]float64, d)
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				mu[j] += v / float64(m.Rows)
			}
		}
		va := make([]float64, d)
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				dd := v - mu[j]
				va[j] += dd * dd / float64(m.Rows-1)
			}
		}
		return mu, va
	}
	mu1, v1 := meanVar(a)
	mu2, v2 := meanVar(b)
	fd := 0.0
	for j := 0; j < d; j++ {
		dm := mu1[j] - mu2[j]
		fd += dm*dm + v1[j] + v2[j] - 2*math.Sqrt(v1[j]*v2[j])
	}
	return fd, nil
}

// FrechetFull computes the exact Fréchet distance between Gaussian fits
// of two feature batches with full covariance matrices:
// ‖μ₁−μ₂‖² + tr(Σ₁ + Σ₂ − 2(Σ₁Σ₂)^{1/2}). The matrix square root is
// evaluated through the symmetric Jacobi eigendecomposition
// (tensor.TraceSqrtProduct). It coincides with FrechetDiag when features
// are uncorrelated and refines it when they are not.
func FrechetFull(a, b *tensor.Mat) (float64, error) {
	if a.Cols != b.Cols {
		return 0, fmt.Errorf("metrics: feature dims differ: %d vs %d", a.Cols, b.Cols)
	}
	if a.Rows < 2 || b.Rows < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 samples per side, got %d and %d", a.Rows, b.Rows)
	}
	d := a.Cols
	mean := func(m *tensor.Mat) []float64 {
		mu := make([]float64, d)
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				mu[j] += v / float64(m.Rows)
			}
		}
		return mu
	}
	mu1, mu2 := mean(a), mean(b)
	cov1, err := tensor.Covariance(a)
	if err != nil {
		return 0, err
	}
	cov2, err := tensor.Covariance(b)
	if err != nil {
		return 0, err
	}
	cross, err := tensor.TraceSqrtProduct(cov1, cov2)
	if err != nil {
		return 0, err
	}
	fd := 0.0
	for j := 0; j < d; j++ {
		dm := mu1[j] - mu2[j]
		fd += dm*dm + cov1.At(j, j) + cov2.At(j, j)
	}
	fd -= 2 * cross
	// Round-off can push an exact zero slightly negative.
	if fd < 0 && fd > -1e-6 {
		fd = 0
	}
	return fd, nil
}

// ModeStats returns the per-class histogram of argmax predictions and the
// number of distinct classes hit — the mode-coverage diagnostic for the
// collapse pathology discussed in the paper's introduction.
func ModeStats(probs *tensor.Mat) (hist []int, coverage int) {
	hist = make([]int, probs.Cols)
	for i := 0; i < probs.Rows; i++ {
		hist[probs.ArgmaxRow(i)]++
	}
	for _, n := range hist {
		if n > 0 {
			coverage++
		}
	}
	return hist, coverage
}

// TVDFromUniform returns the total-variation distance between the
// normalised histogram and the uniform distribution over its bins:
// 0 for perfectly balanced modes, approaching 1-1/k under full collapse.
func TVDFromUniform(hist []int) float64 {
	total := 0
	for _, n := range hist {
		total += n
	}
	if total == 0 || len(hist) == 0 {
		return 0
	}
	u := 1.0 / float64(len(hist))
	tvd := 0.0
	for _, n := range hist {
		tvd += math.Abs(float64(n)/float64(total) - u)
	}
	return tvd / 2
}

// Report bundles every metric for one generator evaluation.
type Report struct {
	InceptionScore float64
	Frechet        float64
	ModeCoverage   int
	TVD            float64
}

// Evaluate scores a batch of generated images against real samples from
// ds using the classifier.
func Evaluate(c *Classifier, generated *tensor.Mat, ds *dataset.Dataset, realSamples int) (Report, error) {
	if generated.Cols != dataset.Pixels {
		return Report{}, fmt.Errorf("metrics: generated images have %d pixels, want %d", generated.Cols, dataset.Pixels)
	}
	if realSamples > ds.N {
		realSamples = ds.N
	}
	probs := c.Probs(generated)
	hist, coverage := ModeStats(probs)
	idx := make([]int, realSamples)
	for i := range idx {
		idx[i] = i
	}
	real, _ := ds.Batch(idx)
	fd, err := FrechetDiag(c.Features(real), c.Features(generated))
	if err != nil {
		return Report{}, err
	}
	return Report{
		InceptionScore: InceptionScore(probs),
		Frechet:        fd,
		ModeCoverage:   coverage,
		TVD:            TVDFromUniform(hist),
	}, nil
}
