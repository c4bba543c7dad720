package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// expProbe is an argument at which math.Exp's two amd64 formulations
// differ in the last bit: with FMA it returns expProbeFused, without
// (a host that lacks it, or GODEBUG=cpu.fma=off) one ulp more.
const expProbe, expProbeFused = 0x401098ba21a31e60, 0x404fb0a2236c300d

// requireStdlibFMA skips a comparison with math.Exp or math.Tanh unless
// the stdlib takes the FMA formulation that Exp and the leaf reproduce.
// The golden hashes, not these tests, hold the bits on other hosts.
func requireStdlibFMA(t testing.TB) {
	if math.Float64bits(math.Exp(math.Float64frombits(expProbe))) != expProbeFused {
		t.Skip("math.Exp does not fuse on this host: Exp, Tanh and TanhInto are NOT compared with the stdlib")
	}
}

// stdlibSigmoid is the logistic function as nn and core wrote it over
// math.Exp before Sigmoid replaced it.
func stdlibSigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func requireSameFloat(t testing.TB, what string, x, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s(%v = %#x) = %v (%#x), stdlib gives %v (%#x)", what, x, math.Float64bits(x),
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestExpMatchesStdlib(t *testing.T) {
	requireStdlibFMA(t)
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 709.78, 7.09782712893384e+02, -745.13, -745.2,
		-708.4, -709, -740, -1e300, 1e300, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001)}
	for _, b := range []float64{7.09782712893384e+02, -7.45133219101941108420e+02} {
		xs = append(xs, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	for x := -760.0; x <= 720; x += 0.37 {
		xs = append(xs, x)
	}
	rng := NewRNG(3)
	for range 200000 {
		xs = append(xs, rng.NormFloat64()*8)
	}
	for _, x := range xs {
		requireSameFloat(t, "Exp", x, Exp(x), math.Exp(x))
		requireSameFloat(t, "Sigmoid", x, Sigmoid(x), stdlibSigmoid(x))
	}
}

// tanhSpecials returns Tanh's edge inputs at width F: ±0, 0.625 and
// tanhMaxArg with their neighbours at that width, NaNs with a payload,
// ±Inf, denormals and ±1e300.
func tanhSpecials[F Float]() []float64 {
	var out []float64
	for _, b := range []float64{0.625, tanhMaxArg} {
		if unsafe.Sizeof(F(0)) == 4 {
			b32 := float32(b)
			out = append(out, float64(b32), float64(math.Nextafter32(b32, 0)), float64(math.Nextafter32(b32, 100)))
		} else {
			out = append(out, b, math.Nextafter(b, 0), math.Nextafter(b, 100))
		}
	}
	out = append(out, 1e300, math.Inf(1),
		math.SmallestNonzeroFloat64, 1e-310, math.SmallestNonzeroFloat32, 1e-40)
	for _, v := range out[:len(out):len(out)] {
		out = append(out, -v)
	}
	return append(out, 0, math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000abc))
}

// checkTanhInto runs TanhInto over n elements of src and dst, each offset
// off elements into its own buffer, and holds every result to the stdlib
// bit for bit, the source untouched and the elements around the
// destination unwritten; then it runs the same elements in place.
func checkTanhInto[F Float](t *testing.T, vals []F, n, off int) {
	t.Helper()
	src := make([]F, n+off)
	copy(src[off:], vals[:n])
	dst := make([]F, n+off+1)
	for i := range dst {
		dst[i] = 7
	}
	TanhInto(dst[off:off+n], src[off:])
	for i, v := range src[off:] {
		want := F(math.Tanh(float64(v)))
		if floatBits(v) != floatBits(vals[i]) {
			t.Fatalf("n=%d off=%d: source element %d written", n, off, i)
		}
		if floatBits(dst[off+i]) != floatBits(want) {
			t.Fatalf("n=%d off=%d: tanh(%v = %#x) = %v (%#x), math.Tanh gives %v (%#x)", n, off,
				v, floatBits(v), dst[off+i], floatBits(dst[off+i]), want, floatBits(want))
		}
	}
	for i := range off {
		if dst[i] != 7 {
			t.Fatalf("n=%d off=%d: element %d before the destination written", n, off, i)
		}
	}
	if dst[off+n] != 7 {
		t.Fatalf("n=%d off=%d: element after the destination written", n, off)
	}
	TanhInto(src[off:], src[off:])
	for i, v := range src[off:] {
		if floatBits(v) != floatBits(dst[off+i]) {
			t.Fatalf("n=%d off=%d: in place, element %d is %v, want %v", n, off, i, v, dst[off+i])
		}
	}
}

func testTanhLeaf[F Float](t *testing.T) {
	specials := tanhSpecials[F]()
	rng := NewRNG(11)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15, 29, 30, 31} {
		for off := range 4 {
			// Every special in every lane of a quad and in the tail.
			for start := range specials {
				vals := make([]F, n)
				for i := range vals {
					if (i+start)%3 == 2 {
						vals[i] = F(rng.NormFloat64() * 4)
					} else {
						vals[i] = F(specials[(i+start)%len(specials)])
					}
				}
				checkTanhInto(t, vals, n, off)
			}
		}
	}
	vals := make([]F, 1<<16+3)
	for i := range vals {
		vals[i] = F(rng.NormFloat64() * 4)
	}
	checkTanhInto(t, vals, len(vals), 1)
}

// TestTanhLeafBitExact holds TanhInto on every leaf tier, at both widths,
// to math.Tanh bit for bit, NaN payloads included, over every length mod
// 4 and every element offset within a quad.
func TestTanhLeafBitExact(t *testing.T) {
	requireStdlibFMA(t)
	eachLeafTier(t, func(t *testing.T) {
		t.Run("float64", testTanhLeaf[float64])
		t.Run("float32", testTanhLeaf[float32])
	})
}

// FuzzTanhExp compares Exp, Tanh and Sigmoid at x, and TanhInto over a
// run of up to 67 elements around x at an offset of up to 3, at the width
// and on the leaf tier the flags pick, with the stdlib bit for bit.
func FuzzTanhExp(f *testing.F) {
	for _, x := range []float64{0, -0.625, 0.625, tanhMaxArg, -44.02, 1e300, 3.5, -745.2, 709.79} {
		f.Add(math.Float64bits(x), uint8(9), uint8(1), uint8(0))
	}
	f.Add(uint64(0x7ff8000000000123), uint8(67), uint8(3), uint8(3))
	f.Add(uint64(expProbe), uint8(4), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, bits uint64, n, off, flags uint8) {
		requireStdlibFMA(t)
		x := math.Float64frombits(bits)
		requireSameFloat(t, "Exp", x, Exp(x), math.Exp(x))
		requireSameFloat(t, "Tanh", x, Tanh(x), math.Tanh(x))
		requireSameFloat(t, "Sigmoid", x, Sigmoid(x), stdlibSigmoid(x))
		if flags&2 != 0 {
			detected := leafTier
			leafTier = tierGeneric
			defer func() { leafTier = detected }()
		}
		// x and its neighbours at several scales, so one input reaches
		// every branch of the leaf.
		vals := make([]float64, int(n)%68)
		for i := range vals {
			vals[i] = x * float64(i%9-4) / float64(1+i/9)
		}
		if flags&1 != 0 {
			v32 := make([]float32, len(vals))
			for i, v := range vals {
				v32[i] = float32(v)
			}
			checkTanhInto(t, v32, len(v32), int(off)%4)
		} else {
			checkTanhInto(t, vals, len(vals), int(off)%4)
		}
	})
}
