package tensor

import (
	"math"
	"testing"
	"unsafe"
)

// eachLeafTier runs f with the matmul leaves as detected on this host and
// again with haveAVX2 forced false, so the assembly and the generic Go
// loops both face the same assertions. On a host without AVX2 the first
// half is skipped, loudly: the assembly was not exercised.
func eachLeafTier(t *testing.T, f func(t *testing.T)) {
	detected := haveAVX2
	defer func() { haveAVX2 = detected }()
	t.Run("avx2", func(t *testing.T) {
		if !detected {
			t.Skip("NO AVX2 ON THIS HOST: the assembly leaves are NOT exercised by this run")
		}
		f(t)
	})
	haveAVX2 = false
	t.Run("generic", f)
}

func floatBits[F Float](v F) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// leafValues returns the pool the leaf tests draw from: ordinary values
// plus ±0, the smallest denormal, a value whose square is denormal, ±Inf
// and NaN.
func leafValues[F Float]() []F {
	denorm, tiny := math.SmallestNonzeroFloat64, 1e-160
	if unsafe.Sizeof(F(0)) == 4 {
		denorm, tiny = math.SmallestNonzeroFloat32, 1e-20
	}
	negZero := math.Copysign(0, -1)
	return []F{
		1, -2.5, 0.3, 1e3, -7e-3, 0.1, 3, -0.7, 11, 0.25, -1e-2, 5,
		0, F(negZero), F(denorm), F(-denorm), F(tiny), F(-tiny),
		F(math.Inf(1)), F(math.Inf(-1)), F(math.NaN()),
	}
}

// fillLeaf draws n values from the pool, specials about one time in eight.
func fillLeaf[F Float](n int, rng *RNG) []F {
	pool := leafValues[F]()
	const ordinary = 12
	out := make([]F, n)
	for i := range out {
		if rng.Intn(8) == 0 {
			out[i] = pool[ordinary+rng.Intn(len(pool)-ordinary)]
		} else {
			out[i] = pool[rng.Intn(ordinary)] * F(rng.Float64())
		}
	}
	return out
}

// requireSameBits demands equal bit patterns, except that a NaN matches any
// NaN: which operand's payload and sign survive x+y or x·y of two NaNs
// depends on operand order, which the compiler picks per statement in the
// generic loop (and not consistently), so it is no part of the contract.
func requireSameBits[F Float](t *testing.T, what string, got, want []F) {
	t.Helper()
	for i := range want {
		if floatBits(got[i]) != floatBits(want[i]) && (got[i] == got[i] || want[i] == want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), generic loop gives %v (%#x)",
				what, i, got[i], floatBits(got[i]), want[i], floatBits(want[i]))
		}
	}
}

// TestSIMDLeavesBitExact holds the assembly leaves to the generic Go loops
// bit for bit over every vector/tail split, unaligned operands and
// non-finite inputs. Whole backing arrays are compared, so a store outside
// the destination fails too.
func TestSIMDLeavesBitExact(t *testing.T) {
	if !haveAVX2 {
		t.Skip("NO AVX2 ON THIS HOST: the assembly leaves are NOT exercised by this run")
	}
	t.Run("float64", testSIMDLeaves[float64])
	t.Run("float32", testSIMDLeaves[float32])
	t.Run("adam", testAdamLeaf)
}

// testAdamLeaf holds the Adam leaf to the Go loop over the same splits and
// specials: ±0, denormal g and g whose square underflows, v = 0 (so the
// denominator is √0 + ε), ±Inf and NaN, each operand at its own offset.
func testAdamLeaf(t *testing.T) {
	defer func() { haveAVX2 = true }()
	rng := NewRNG(24)
	const maxOff = 8
	for n := 0; n <= 67; n++ {
		for off := 0; off < maxOff; off++ {
			var want, got [4][]float64 // backing arrays of w, m, v, g
			op := func(b [4][]float64, k int) []float64 { o := (off + 3*k) % maxOff; return b[k][o : o+n] }
			for k := range want {
				want[k] = fillLeaf[float64](n+maxOff, rng)
			}
			v := op(want, 2)
			for i := range v {
				if v[i] = math.Abs(v[i]); rng.Intn(4) == 0 {
					v[i] = 0
				}
			}
			for k := range got {
				got[k] = append([]float64(nil), want[k]...)
			}
			step := 1 + rng.Intn(50)
			c1, c2 := 1-math.Pow(0.9, float64(step)), 1-math.Pow(0.999, float64(step))
			haveAVX2 = false
			AdamStep(op(want, 0), op(want, 1), op(want, 2), op(want, 3), 0.9, 0.999, c1, c2, 2e-4, 1e-8)
			haveAVX2 = true
			AdamStep(op(got, 0), op(got, 1), op(got, 2), op(got, 3), 0.9, 0.999, c1, c2, 2e-4, 1e-8)
			for k, name := range []string{"w", "m", "v", "g"} {
				requireSameBits(t, "adamStep "+name, got[k], want[k])
			}
		}
	}
}

func testSIMDLeaves[F Float](t *testing.T) {
	rng := NewRNG(16)
	const maxOff = 8
	for n := 0; n <= 67; n++ {
		for dstOff := 0; dstOff < maxOff; dstOff++ {
			for srcOff := 0; srcOff < maxOff; srcOff++ {
				want := fillLeaf[F](n+2*maxOff, rng)
				got := append([]F(nil), want...)
				var b [4][]F
				for m := range b {
					off := (srcOff + 3*m) % maxOff
					b[m] = fillLeaf[F](n+maxOff, rng)[off : off+n]
				}
				a := fillLeaf[F](4, rng)
				if n%5 == 0 {
					a[rng.Intn(4)] = 0 // 0·NaN and 0·±Inf terms
				}
				mulAddRow4(false, want[dstOff:dstOff+n], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				mulAddRow4(true, got[dstOff:dstOff+n], b[0], b[1], b[2], b[3], a[0], a[1], a[2], a[3])
				requireSameBits(t, "mulAddRow4", got, want)
			}
		}
	}
	const bRows, j, lo = 7, 2, 1
	for aCols := 0; aCols <= 9; aCols++ {
		for rows := 0; rows <= 9; rows++ {
			for dstOff := 0; dstOff < maxOff; dstOff++ {
				for srcOff := 0; srcOff < maxOff; srcOff++ {
					hi := lo + rows
					want := fillLeaf[F](dstOff+hi*bRows+maxOff, rng)
					got := append([]F(nil), want...)
					a := fillLeaf[F](srcOff+hi*aCols, rng)[srcOff:]
					pOff := (srcOff + 5) % maxOff
					p := fillLeaf[F](pOff+4*aCols, rng)[pOff:]
					panelDot(false, want[dstOff:], a, p, aCols, bRows, j, lo, hi)
					panelDot(true, got[dstOff:], a, p, aCols, bRows, j, lo, hi)
					requireSameBits(t, "panelDot", got, want)
				}
			}
		}
	}
}

// A 0·NaN or 0·±Inf term must poison exactly its own lane on both tiers:
// the PR 10 regression, at every position of a vector and of the tail.
func TestLeavesPoisonOnlyTheirLane(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		const n = 19
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for lane := 0; lane < n; lane++ {
				c := make([]float64, n)
				b := [4][]float64{}
				for m := range b {
					b[m] = make([]float64, n)
					for i := range b[m] {
						b[m][i] = float64(m + i)
					}
				}
				b[2][lane] = bad
				mulAddRow4(haveAVX2, c, b[0], b[1], b[2], b[3], 1, 2, 0, 3)
				for i, v := range c {
					if math.IsNaN(v) != (i == lane) {
						t.Fatalf("0·%v at lane %d: c[%d] = %v", bad, lane, i, v)
					}
				}
			}
		}
	})
}
