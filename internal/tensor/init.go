package tensor

import "math"

// XavierUniform fills m with samples from U(-a, a) where
// a = sqrt(6 / (fanIn + fanOut)), the Glorot/Xavier initialisation used by
// the original Lipizzaner MLP networks.
func XavierUniform(m *Mat, fanIn, fanOut int, rng *RNG) {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * a
	}
}

// HeNormal fills m with samples from N(0, 2/fanIn), appropriate for
// rectifier activations.
func HeNormal(m *Mat, fanIn int, rng *RNG) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// GaussianFill fills m with samples from N(mean, std²), drawn in float64
// and rounded to m's element type.
func GaussianFill[T Float](m *Matrix[T], mean, std float64, rng *RNG) {
	for i := range m.Data {
		m.Data[i] = T(mean + rng.NormFloat64()*std)
	}
}

// UniformFill fills m with samples from U(lo, hi).
func UniformFill(m *Mat, lo, hi float64, rng *RNG) {
	span := hi - lo
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*span
	}
}
