package nn

import (
	"math"

	"cellgan/internal/tensor"
)

// bceEps clamps probabilities away from 0 and 1 so log stays finite.
const bceEps = 1e-12

// BCELossInto computes the mean binary cross-entropy between predicted
// probabilities p (any shape) and targets y ∈ [0,1] of the same shape,
// writes ∂L/∂p into grad (resized as needed) and returns the loss together
// with grad. This matches the minmax GAN objective of the paper with
// φ = log.
func BCELossInto(grad, p, y *tensor.Mat) (float64, *tensor.Mat) {
	if p.Rows != y.Rows || p.Cols != y.Cols {
		panic("nn: BCELoss shape mismatch")
	}
	n := float64(len(p.Data))
	grad.Resize(p.Rows, p.Cols)
	loss := 0.0
	for i, pi := range p.Data {
		pc := math.Min(math.Max(pi, bceEps), 1-bceEps)
		yi := y.Data[i]
		loss += -(yi*math.Log(pc) + (1-yi)*math.Log(1-pc))
		grad.Data[i] = (pc - yi) / (pc * (1 - pc)) / n
	}
	return loss / n, grad
}

// BCEWithLogitsLossInto computes mean binary cross-entropy directly from
// logits z, which is numerically stable for saturated discriminators:
// L = mean(max(z,0) - z·y + log(1+exp(-|z|))), ∂L/∂z = (σ(z) - y)/n,
// written into grad (resized as needed).
func BCEWithLogitsLossInto(grad, z, y *tensor.Mat) (float64, *tensor.Mat) {
	if z.Rows != y.Rows || z.Cols != y.Cols {
		panic("nn: BCEWithLogitsLoss shape mismatch")
	}
	n := float64(len(z.Data))
	grad.Resize(z.Rows, z.Cols)
	loss := 0.0
	for i, zi := range z.Data {
		yi := y.Data[i]
		loss += math.Max(zi, 0) - zi*yi + math.Log1p(tensor.Exp(-math.Abs(zi)))
		grad.Data[i] = (tensor.Sigmoid(zi) - yi) / n
	}
	return loss / n, grad
}

// MSELossInto computes the mean squared error, writing its gradient into
// grad (resized as needed).
func MSELossInto(grad, p, y *tensor.Mat) (float64, *tensor.Mat) {
	if p.Rows != y.Rows || p.Cols != y.Cols {
		panic("nn: MSELoss shape mismatch")
	}
	n := float64(len(p.Data))
	grad.Resize(p.Rows, p.Cols)
	loss := 0.0
	for i, pi := range p.Data {
		d := pi - y.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// Softmax returns row-wise softmax probabilities of logits.
func Softmax(z *tensor.Mat) *tensor.Mat {
	p := tensor.New(z.Rows, z.Cols)
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		out := p.Row(i)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := tensor.Exp(v - mx)
			out[j] = e
			s += e
		}
		inv := 1 / s
		for j := range out {
			out[j] *= inv
		}
	}
	return p
}

// SoftmaxCrossEntropy computes the mean cross-entropy between row-wise
// softmax(logits) and integer class labels, returning the loss and
// ∂L/∂logits. Used by the classifier that backs the inception-score metric.
func SoftmaxCrossEntropy(logits *tensor.Mat, labels []int) (float64, *tensor.Mat) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	p := Softmax(logits)
	n := float64(logits.Rows)
	loss := 0.0
	grad := p.Clone()
	for i, lbl := range labels {
		if lbl < 0 || lbl >= logits.Cols {
			panic("nn: SoftmaxCrossEntropy label out of range")
		}
		pi := math.Max(p.At(i, lbl), bceEps)
		loss += -math.Log(pi)
		grad.Set(i, lbl, grad.At(i, lbl)-1)
	}
	grad.Scale(1 / n)
	return loss / n, grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Mat, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := range labels {
		if logits.ArgmaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
