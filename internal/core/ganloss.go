package core

import (
	"fmt"
	"math"
	"strings"

	"cellgan/internal/nn"
	"cellgan/internal/tensor"
)

// GANLoss identifies one of the adversarial loss functions of the
// Mustangs framework (Toutouh, Hemberg, O'Reilly, GECCO 2019 — the
// paper's reference [6]). Mustangs extends Lipizzaner by evolving the
// loss function itself: each cell carries a loss gene that mutates during
// training, so different cells may optimise different GAN objectives.
type GANLoss byte

// The Mustangs loss set.
const (
	// LossBCE is the non-saturating ("heuristic") objective of Goodfellow
	// et al.: the generator minimises −log D(G(z)). Lipizzaner's default.
	LossBCE GANLoss = iota
	// LossMinimax is the original minimax objective: the generator
	// minimises log(1 − D(G(z))).
	LossMinimax
	// LossLSGAN is the least-squares objective of Mao et al.: both
	// networks minimise squared distance of the raw logit from its
	// target.
	LossLSGAN
	// LossWGAN is the Wasserstein objective of Arjovsky et al. with
	// weight clipping: the critic maximises E[D(x)] − E[D(G(z))], the
	// generator maximises E[D(G(z))]. An extension beyond the Mustangs
	// pool; the paper's introduction cites the same instability
	// literature that motivated it.
	LossWGAN
	numGANLosses
)

// wganClip is the critic weight-clipping bound of the original WGAN.
const wganClip = 0.01

// String names the loss.
func (l GANLoss) String() string {
	switch l {
	case LossBCE:
		return "bce"
	case LossMinimax:
		return "minimax"
	case LossLSGAN:
		return "lsgan"
	case LossWGAN:
		return "wgan"
	default:
		return fmt.Sprintf("loss(%d)", byte(l))
	}
}

// ParseGANLoss resolves a loss name.
func ParseGANLoss(name string) (GANLoss, error) {
	switch strings.TrimSpace(name) {
	case "bce", "heuristic":
		return LossBCE, nil
	case "minimax":
		return LossMinimax, nil
	case "lsgan", "least-squares":
		return LossLSGAN, nil
	case "wgan", "wasserstein":
		return LossWGAN, nil
	default:
		return 0, fmt.Errorf("core: unknown GAN loss %q (want bce, minimax, lsgan or wgan)", name)
	}
}

// ParseLossSet parses a comma-separated loss list (the config's loss_set
// field); an empty string yields {bce}.
func ParseLossSet(s string) ([]GANLoss, error) {
	if strings.TrimSpace(s) == "" {
		return []GANLoss{LossBCE}, nil
	}
	var out []GANLoss
	seen := map[GANLoss]bool{}
	for _, part := range strings.Split(s, ",") {
		l, err := ParseGANLoss(part)
		if err != nil {
			return nil, err
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out, nil
}

// lossScratch owns the gradient and constant-target buffers reused across
// loss evaluations. The gradient a loss function returns aliases s.grad
// and is only valid until the next loss call on the same scratch — callers
// must backpropagate it before reusing s. The zero value is ready to use.
type lossScratch struct {
	grad   tensor.Mat
	target tensor.Mat
}

// full returns a rows×cols matrix filled with v, reusing s's target buffer.
func (s *lossScratch) full(rows, cols int, v float64) *tensor.Mat {
	s.target.Resize(rows, cols).Fill(v)
	return &s.target
}

// generatorLoss computes the generator objective and ∂L/∂logits for the
// discriminator logits of generated samples, writing the gradient (and any
// constant target) into s-owned buffers.
func generatorLoss(kind GANLoss, logits *tensor.Mat, s *lossScratch) (float64, *tensor.Mat) {
	n := float64(len(logits.Data))
	switch kind {
	case LossMinimax:
		// L = mean(log(1 − σ(z))) = mean(−z − log(1+e^(−z)))… computed
		// stably via log-sigmoid: log(1−σ(z)) = −z + logσ(z).
		grad := s.grad.Resize(logits.Rows, logits.Cols)
		loss := 0.0
		for i, z := range logits.Data {
			// log σ(z) = −log(1+e^(−z)) computed stably.
			logSig := -math.Log1p(tensor.Exp(-math.Abs(z)))
			if z < 0 {
				logSig += z
			}
			loss += -z + logSig
			// d/dz log(1−σ(z)) = −σ(z)
			grad.Data[i] = -tensor.Sigmoid(z) / n
		}
		return loss / n, grad
	case LossLSGAN:
		ones := s.full(logits.Rows, logits.Cols, 1)
		return nn.MSELossInto(&s.grad, logits, ones)
	case LossWGAN:
		// L = −mean(z): the generator pushes the critic score up.
		grad := s.grad.Resize(logits.Rows, logits.Cols)
		grad.Fill(-1 / n)
		return -logits.Mean(), grad
	default: // LossBCE (non-saturating)
		ones := s.full(logits.Rows, logits.Cols, 1)
		return nn.BCEWithLogitsLossInto(&s.grad, logits, ones)
	}
}

// discHalfLoss computes one half of the discriminator objective (real or
// fake logits against a constant target) and its gradient, written into
// s-owned buffers. It is split in halves because backpropagation must run
// per forward pass.
func discHalfLoss(kind GANLoss, logits *tensor.Mat, target float64, s *lossScratch) (float64, *tensor.Mat) {
	switch kind {
	case LossLSGAN:
		t := s.full(logits.Rows, logits.Cols, target)
		return nn.MSELossInto(&s.grad, logits, t)
	case LossWGAN:
		// Critic loss: −mean(real) + mean(fake); target 1 marks the real
		// half, 0 the fake half.
		n := float64(len(logits.Data))
		sign := 1.0
		if target >= 0.5 {
			sign = -1
		}
		grad := s.grad.Resize(logits.Rows, logits.Cols)
		grad.Fill(sign / n)
		return sign * logits.Mean(), grad
	default:
		// LossBCE and LossMinimax share the discriminator objective.
		t := s.full(logits.Rows, logits.Cols, target)
		return nn.BCEWithLogitsLossInto(&s.grad, logits, t)
	}
}

// clipWeights clamps every parameter of net into [−c, c] — the WGAN
// critic's Lipschitz enforcement, applied after each critic update.
func clipWeights(net *nn.Network, c float64) {
	for _, p := range net.Params() {
		for i, v := range p.Data {
			if v > c {
				p.Data[i] = c
			} else if v < -c {
				p.Data[i] = -c
			}
		}
	}
}
