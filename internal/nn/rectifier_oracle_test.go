package nn

import (
	"math"
	"testing"

	"cellgan/internal/tensor"
)

// The parity oracle of the rectifiers: the branch forms that the
// production loops replaced with selects, kept here as conv_oracle_test.go
// keeps the direct convolutions. The tests are v >= 0 / v < 0 for the leaky
// rectifier and v <= 0 for the plain one, so −0 and a NaN of either sign
// take the non-negative side of the first and the positive side of the
// second; the production loops must match them bit for bit.

func leakyForwardOracle[T tensor.Float](x []T, alpha T) []T {
	out := make([]T, len(x))
	for i, v := range x {
		if v >= 0 {
			out[i] = v
		} else {
			out[i] = alpha * v
		}
	}
	return out
}

func leakyBackwardOracle[T tensor.Float](x, grad []T, alpha T) []T {
	out := make([]T, len(x))
	for i, v := range x {
		g := grad[i]
		if v < 0 {
			g *= alpha
		}
		out[i] = g
	}
	return out
}

func reluForwardOracle[T tensor.Float](x []T) []T {
	out := make([]T, len(x))
	for i, v := range x {
		if v <= 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func reluBackwardOracle[T tensor.Float](x, grad []T) []T {
	out := make([]T, len(x))
	for i, v := range x {
		if v <= 0 {
			out[i] = 0
		} else {
			out[i] = grad[i]
		}
	}
	return out
}

// bitsOf is the bit pattern of v at its own width.
func bitsOf[T tensor.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// rectifierValues are ordinary values of both signs plus ±0, ±denormal,
// ±Inf and NaN with the sign bit clear and set.
func rectifierValues[T tensor.Float]() []T {
	denorm := math.SmallestNonzeroFloat64
	if _, ok := any(T(0)).(float32); ok {
		denorm = math.SmallestNonzeroFloat32
	}
	nan := T(math.NaN())
	return []T{
		1.5, -1.5, 0.3, -0.3, 0, T(math.Copysign(0, -1)), T(denorm), T(-denorm),
		T(math.Inf(1)), T(math.Inf(-1)), nan, -nan,
	}
}

func requireBits[T tensor.Float](t *testing.T, what string, x, got, want []T) {
	t.Helper()
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s at x = %v (%#x): got %v (%#x), branch form gives %v (%#x)",
				what, x[i], bitsOf(x[i]), got[i], bitsOf(got[i]), want[i], bitsOf(want[i]))
		}
	}
}

// TestRectifiersMatchBranchOracle pairs every special input with every
// special gradient, at both widths and at the ends of the slope range.
func TestRectifiersMatchBranchOracle(t *testing.T) {
	t.Run("float64", testRectifiers[float64])
	t.Run("float32", testRectifiers[float32])
}

func testRectifiers[T tensor.Float](t *testing.T) {
	vals := rectifierValues[T]()
	n := len(vals)
	xs, gs := make([]T, n*n), make([]T, n*n)
	for i := range xs {
		xs[i], gs[i] = vals[i/n], vals[i%n]
	}
	X, G := tensor.FromSlice(n, n, xs), tensor.FromSlice(n, n, gs)
	for _, alpha := range []T{0.2, 1, T(math.SmallestNonzeroFloat32)} {
		l, s := &LeakyReLUOf[T]{Alpha: alpha}, new(LayerScratchOf[T])
		requireBits(t, "LeakyReLU forward", xs, l.Forward(s, X).Data, leakyForwardOracle(xs, alpha))
		requireBits(t, "LeakyReLU backward", xs, l.Backward(s, G, NeedInput).Data, leakyBackwardOracle(xs, gs, alpha))
	}
	r, s := &ReLUOf[T]{}, new(LayerScratchOf[T])
	requireBits(t, "ReLU forward", xs, r.Forward(s, X).Data, reluForwardOracle(xs))
	requireBits(t, "ReLU backward", xs, r.Backward(s, G, NeedInput).Data, reluBackwardOracle(xs, gs))
}

// TestLeakyReLUSlopeRange: max(x, α·x) is the rectifier Backward
// differentiates only for 0 < α ≤ 1; every other slope is refused.
func TestLeakyReLUSlopeRange(t *testing.T) {
	for _, alpha := range []float64{1.5, -0.1, 0, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLeakyReLU(%v) did not panic", alpha)
				}
			}()
			NewLeakyReLU(alpha)
		}()
	}
	for _, alpha := range []float64{0.2, 1} {
		if l := NewLeakyReLU(alpha); l.Alpha != alpha || l.Narrow().(*LeakyReLUOf[float32]).Alpha != float32(alpha) {
			t.Errorf("NewLeakyReLU(%v) slope not kept", alpha)
		}
	}
}
