package tensor

import "math"

// Exp returns eˣ. It is math.Exp's amd64 algorithm (exp_amd64.s: a
// two-part ln 2 reduction, a Taylor series on x/16 squared back four
// times, and a scale by 2ᵏ) in the formulation that math.Exp takes on a
// host with FMA, written with math.FMA where that takes a fused
// multiply-add. math.FMA rounds once whether or not the hardware has FMA,
// so Exp gives the same bits on every amd64 host, and on a host with FMA
// the bits of math.Exp.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x):
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// k rounds half to even, as CVTSD2SL does. Below 2⁻¹⁰⁷⁵ the result
	// is +0, which also covers -Inf and every k out of int32's range.
	k := math.RoundToEven(log2e * x)
	if k < -1075 {
		return 0
	}
	r := math.FMA(-k, ln2U, x)
	r = math.FMA(-k, ln2L, r)
	r *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	r *= p
	r *= r + 2
	r *= r + 2
	r *= r + 2
	r = math.FMA(r, r+2, 1)
	// r·2ᵏ through the biased exponent b; a denormal result is scaled
	// in two steps, as ldexp in exp_amd64.s does.
	b := int64(k) + 0x3FF
	switch {
	case b >= 0x7FF:
		return math.Inf(1)
	case b <= 0:
		r *= math.Float64frombits(uint64(b+0x3FE) << 52)
		b = 1
	}
	return r * math.Float64frombits(uint64(b)<<52)
}

// tanhMaxArg is the |x| beyond which Tanh returns ±1: 0.5·MAXLOG of
// math.tanh, with MAXLOG = log(2¹²⁷).
const tanhMaxArg = 0.5 * 8.8029691931113054295988e+01

// Tanh returns the hyperbolic tangent of x: math.tanh's three branches
// (Cephes' rational function below |x| = 0.625, 1 − 2/(e²ˣ + 1) above it,
// ±1 beyond tanhMaxArg) over Exp. It is math.Tanh to the bit wherever Exp
// is math.Exp.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhMaxArg:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		const p0, p1, p2 = -9.64399179425052238628e-1, -9.92877231001918586564e1, -1.61468768441708447952e3
		const q0, q1, q2 = 1.12811678491632931402e2, 2.23548839060100448583e3, 4.84406305325125486048e3
		s := x * x
		z = x + x*s*((p0*s+p1)*s+p2)/(((s+q0)*s+q1)*s+q2)
	}
	return z
}

// Sigmoid is the numerically stable logistic function 1/(1 + e⁻ˣ).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + Exp(-x))
	}
	e := Exp(x)
	return e / (1 + e)
}

// TanhInto sets dst[i] = Tanh(src[i]) for every element of src; dst must
// be at least as long, and may be src itself. A float32 element is
// widened, and its result rounded, so it is float32(Tanh(float64(v))).
// From tierAVX2 up the assembly leaf takes four elements at a time and the
// last len(src) mod 4 run here.
func TanhInto[F Float](dst, src []F) {
	dst = dst[:len(src)]
	n := 0
	if leafTier >= tierAVX2 && len(src) >= 4 {
		n = len(src) &^ 3
		tanhAVX2(dst, src, n)
	}
	for i := n; i < len(src); i++ {
		dst[i] = tanhOf(src[i])
	}
}

// tanhOf is F(Tanh(float64(v))). It stays a call: written inline in
// TanhInto's float32 loop, the widening of one element waits on the
// register that holds the previous element's result (1.6× slower).
//
//go:noinline
func tanhOf[F Float](v F) F {
	return F(Tanh(float64(v)))
}
