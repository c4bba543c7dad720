package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// tierNames names the leaf tiers in the subtests that run them.
var tierNames = [...]string{tierGeneric: "generic", tierAVX2: "avx2", tierAVX512: "avx512"}

// eachLeafTier runs f on every leaf tier, widest first: avx512, avx2 (on
// an AVX-512 host forced, so the YMM tile alone still faces the same
// assertions) and the generic Go loops. A tier this host lacks is
// skipped, loudly: its assembly was not exercised.
func eachLeafTier(t *testing.T, f func(t *testing.T)) {
	detected := leafTier
	defer func() { leafTier = detected }()
	for tier := tierAVX512; tier >= tierGeneric; tier-- {
		t.Run(tierNames[tier], func(t *testing.T) {
			if tier > detected {
				t.Skipf("NO %s ON THIS HOST: its assembly leaves are NOT exercised by this run", strings.ToUpper(tierNames[tier]))
			}
			leafTier = tier
			f(t)
		})
	}
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

// fillLeaf draws n values from the pool, specials about one time in every.
func fillLeaf[F Float](n, every int, rng *RNG) []F {
	pool := leafValues[F]()
	const ordinary = 12
	out := make([]F, n)
	for i := range out {
		if rng.Intn(every) == 0 {
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
// non-finite inputs, the block leaf on every SIMD tier the host has. Whole
// backing arrays are compared, so a store outside the destination fails
// too.
func TestSIMDLeavesBitExact(t *testing.T) {
	if leafTier < tierAVX2 {
		t.Skip("NO AVX2 ON THIS HOST: the assembly leaves are NOT exercised by this run")
	}
	t.Run("float64", testBlockLeaf[float64])
	t.Run("float32", testBlockLeaf[float32])
	t.Run("adam", testAdamLeaf)
}

// testAdamLeaf holds the Adam leaf to the Go loop over the same splits and
// specials: ±0, denormal g and g whose square underflows, v = 0 (so the
// denominator is √0 + ε), ±Inf and NaN, each operand at its own offset.
func testAdamLeaf(t *testing.T) {
	detected := leafTier
	defer func() { leafTier = detected }()
	rng := NewRNG(24)
	const maxOff = 8
	for n := 0; n <= 67; n++ {
		for off := 0; off < maxOff; off++ {
			var want, got [4][]float64 // backing arrays of w, m, v, g
			op := func(b [4][]float64, k int) []float64 { o := (off + 3*k) % maxOff; return b[k][o : o+n] }
			for k := range want {
				want[k] = fillLeaf[float64](n+maxOff, 8, rng)
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
			leafTier = tierGeneric
			AdamStep(op(want, 0), op(want, 1), op(want, 2), op(want, 3), 0.9, 0.999, c1, c2, 2e-4, 1e-8)
			leafTier = detected
			AdamStep(op(got, 0), op(got, 1), op(got, 2), op(got, 3), 0.9, 0.999, c1, c2, 2e-4, 1e-8)
			for k, name := range []string{"w", "m", "v", "g"} {
				requireSameBits(t, "adamStep "+name, got[k], want[k])
			}
		}
	}
}

// testBlockLeaf holds the block leaf to its Go loop on every SIMD tier the
// host has, over every tile class at that tier's blockNR:
// row counts 0…2·blockMR+1 and column counts 0…2·blockNR+1 (whole tiles,
// leftover rows, leftover columns, on tierAVX512 a leftover YMM tile) plus
// a few that give a leftover row its four-tile passes, k lengths on both
// sides of kernelKC,
// a laid out as a × b reads it (rows apart) and as aᵀ × b does (k apart),
// c loaded and started from +0, each operand at its own element offset
// and row stride. Half the runs draw specials densely, half sparsely, so
// long k still leaves finite sums to compare.
func testBlockLeaf[F Float](t *testing.T) {
	detected := leafTier
	defer func() { leafTier = detected }()
	for tier := detected; tier >= tierAVX2; tier-- {
		leafTier = tier
		t.Run(tierNames[tier], func(t *testing.T) { testBlockTier[F](t, tier) })
	}
}

func testBlockTier[F Float](t *testing.T, tier int) {
	rng := NewRNG(16)
	nr := blockNR[F]()
	// The largest b spans 129 rows of 9·blockNR+4; the pool holds about
	// twice that, so every draw has room to move.
	const maxOff = 8
	poolLen := 2048 * nr
	pools := [2][]F{fillLeaf[F](poolLen, 8, rng), fillLeaf[F](poolLen, 512, rng)}
	var colCounts []int
	for cols := 0; cols <= 2*nr+1; cols++ {
		colCounts = append(colCounts, cols)
	}
	colCounts = append(colCounts, 4*nr-1, 4*nr, 5*nr+1, 9*nr+3)
	for rows := 0; rows <= 2*blockMR+1; rows++ {
		for _, cols := range colCounts {
			for _, kn := range []int{0, 1, 63, 64, 65, 129} {
				for off := 0; off < maxOff; off++ {
					for mode := 0; mode < 4; mode++ {
						pool := pools[off%2]
						from := func(n, o int) []F { s := o + maxOff*rng.Intn((poolLen-n-o)/maxOff); return pool[s : s+n] }
						cs, bs := cols+off%3, cols+(off/3)%2
						ars, aks := kn+1+off%2, 1
						if mode%2 == 1 {
							ars, aks = 1, rows+off%3
						}
						load := mode < 2
						want := append([]F(nil), from(rows*cs+maxOff, off)...)
						got := append([]F(nil), want...)
						a := from(rows*ars+kn*aks, (off+3)%maxOff)
						b := from(kn*bs+cols, (off+5)%maxOff)
						leafTier = tierGeneric
						block(want[off:], cs, a, ars, aks, b, bs, rows, cols, kn, load)
						leafTier = tier
						block(got[off:], cs, a, ars, aks, b, bs, rows, cols, kn, load)
						requireSameBits(t, fmt.Sprintf("block %d×%d k=%d off=%d mode=%d", rows, cols, kn, off, mode), got, want)
					}
				}
			}
		}
	}
}

// A 0·NaN or 0·±Inf term must poison exactly its own lane on every tier
// (kernels that skipped zero terms once swallowed it), at every (row, lane)
// of a register tile, of its leftover row (four tiles wide, then one), of
// the half tile left over (on tierAVX512 the YMM leaf's) and of the
// leftover columns.
// The bad value sits in b[2][lane], which every row reads, and a zero in
// a[r][2]: ±Inf turns (r, lane) alone into NaN (the other rows take ±Inf),
// a NaN all of column lane.
func TestLeavesPoisonOnlyTheirLane(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		t.Run("float64", testLeafPoison[float64])
		t.Run("float32", testLeafPoison[float32])
	})
}

func testLeafPoison[F Float](t *testing.T) {
	const kn = 5
	nr := blockNR[F]()
	rows, cols := blockMR+1, 5*nr+nr/2+3
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for r := 0; r < rows; r++ {
			for lane := 0; lane < cols; lane++ {
				a := make([]F, rows*kn)
				for i := range a {
					a[i] = F(1 + i%7)
				}
				b := make([]F, kn*cols)
				for i := range b {
					b[i] = F(i%5 - 2)
				}
				a[r*kn+2], b[2*cols+lane] = 0, F(bad)
				c := make([]F, rows*cols)
				block(c, cols, a, kn, 1, b, cols, rows, cols, kn, false)
				for i, v := range c {
					if want := i%cols == lane && (i/cols == r || math.IsNaN(bad)); (v != v) != want {
						t.Fatalf("0·%v at (%d, %d): c[%d][%d] = %v", bad, r, lane, i/cols, i%cols, v)
					}
				}
			}
		}
	}
}
