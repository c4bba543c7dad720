package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The cache-blocked kernels change the loop structure but must not change
// a single output bit relative to the naive ascending-k accumulation.
// These tests sweep shapes chosen to hit every remainder case of the
// tiling: k around the kernelKC=64 tile edge and the 4-wide unroll, j
// around the kernelJC edge, degenerate 1×N / N×1, and zero-dimension
// matrices.

// naiveMulT1 is the reference for MatMulT1 (aᵀ·b).
func naiveMulT1(a, b *Mat) *Mat {
	c := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// naiveMulT2 is the reference for MatMulT2 (a·bᵀ).
func naiveMulT2(a, b *Mat) *Mat {
	c := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// kernelEdgeDims are sizes straddling the unroll width (4), the k-tile
// (kernelKC=64) and small degenerate shapes.
var kernelEdgeDims = []int{1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 127, 130}

func TestTiledKernelsBitExactVsNaive(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		rng := NewRNG(11)
		shapes := [][3]int{}
		for _, k := range kernelEdgeDims {
			shapes = append(shapes, [3]int{3, k, 5}, [3]int{1, k, 1}, [3]int{2, k, 7})
		}
		// j-tile edge: kernelJC columns is large, cover it with a thin product.
		shapes = append(shapes,
			[3]int{1, 2, kernelJC - 1}, [3]int{1, 2, kernelJC}, [3]int{2, 3, kernelJC + 1},
			[3]int{31, 33, 29}, [3]int{64, 64, 64},
		)
		for _, sz := range shapes {
			m, k, n := sz[0], sz[1], sz[2]
			a := randMat(m, k, rng)
			b := randMat(k, n, rng)
			if got, want := MatMulInto(new(Mat), a, b), naiveMul(a, b); !got.Equal(want) {
				t.Fatalf("MatMul not bit-exact vs naive at %v", sz)
			}
			at := randMat(k, m, rng) // aᵀ operand: k rows feed the reduction
			if got, want := MatMulT1Into(new(Mat), at, b), naiveMulT1(at, b); !got.Equal(want) {
				t.Fatalf("MatMulT1 not bit-exact vs naive at %v", sz)
			}
			bt := randMat(n, k, rng)
			if got, want := MatMulT2Into(new(Mat), a, bt), naiveMulT2(a, bt); !got.Equal(want) {
				t.Fatalf("MatMulT2 not bit-exact vs naive at %v", sz)
			}
			dst := randMat(m, n, rng)
			acc := dst.Clone()
			AddMatMulT1Into(acc, at, b)
			// The reference must seed the accumulator with dst and then add the
			// ascending-k terms — the same FP order the kernel contracts to.
			ref := dst.Clone()
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					s := ref.At(i, j)
					for kk := 0; kk < k; kk++ {
						s += at.At(kk, i) * b.At(kk, j)
					}
					ref.Set(i, j, s)
				}
			}
			if !acc.Equal(ref) {
				t.Fatalf("AddMatMulT1Into not bit-exact vs naive at %v", sz)
			}
		}
	})
}

func TestTiledKernelsZeroDims(t *testing.T) {
	// Zero-dimension operands must produce empty (or zero-filled) results
	// without touching out-of-range memory.
	a := New(0, 5)
	b := New(5, 3)
	if c := MatMulInto(new(Mat), a, b); c.Rows != 0 || c.Cols != 3 {
		t.Fatalf("0×5 · 5×3 = %d×%d", c.Rows, c.Cols)
	}
	if c := MatMulInto(new(Mat), New(4, 0), New(0, 3)); c.Rows != 4 || c.Cols != 3 {
		t.Fatalf("4×0 · 0×3 = %d×%d", c.Rows, c.Cols)
	} else {
		for _, v := range c.Data {
			if v != 0 {
				t.Fatal("empty reduction must produce zeros")
			}
		}
	}
	if c := MatMulT1Into(new(Mat), New(0, 4), New(0, 3)); c.Rows != 4 || c.Cols != 3 {
		t.Fatalf("T1 with empty reduction = %d×%d", c.Rows, c.Cols)
	}
	if c := MatMulT2Into(new(Mat), New(2, 0), New(3, 0)); c.Rows != 2 || c.Cols != 3 {
		t.Fatalf("T2 with empty reduction = %d×%d", c.Rows, c.Cols)
	}
}

// Regression for the silent-numerics bug: the pre-tiled kernels skipped
// zero a-elements, so a zero times a NaN or Inf in b contributed nothing
// instead of poisoning the output. IEEE requires 0·NaN = NaN and
// 0·±Inf = NaN; corrupted weights must surface, not launder to finite.
func TestMatMulPropagatesNonFinite(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			a := FromSlice(1, 2, []float64{0, 1})
			b := FromSlice(2, 1, []float64{bad, 2})
			if got := MatMulInto(new(Mat), a, b).At(0, 0); !math.IsNaN(got) {
				t.Fatalf("MatMul 0·%v lost the NaN: got %v", bad, got)
			}
			at := FromSlice(2, 1, []float64{0, 1})
			bb := FromSlice(2, 1, []float64{bad, 2})
			if got := MatMulT1Into(new(Mat), at, bb).At(0, 0); !math.IsNaN(got) {
				t.Fatalf("MatMulT1 0·%v lost the NaN: got %v", bad, got)
			}
			bt := FromSlice(1, 2, []float64{bad, 2})
			if got := MatMulT2Into(new(Mat), a, bt).At(0, 0); !math.IsNaN(got) {
				t.Fatalf("MatMulT2 0·%v lost the NaN: got %v", bad, got)
			}
		}
	})
}

// And the finite flip side: removing the skip must not change finite
// results even in the presence of signed zeros, because accumulators
// start at +0 and (+0)+(±0) = +0 under round-to-nearest.
func TestMatMulSignedZeroStability(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		a := FromSlice(1, 3, []float64{0, math.Copysign(0, -1), 1})
		b := FromSlice(3, 2, []float64{5, math.Copysign(0, -1), 7, 3, 0, math.Copysign(0, -1)})
		c := MatMulInto(new(Mat), a, b)
		if math.Signbit(c.At(0, 1)) && c.At(0, 1) == 0 {
			t.Fatal("accumulation produced −0 where naive ascending-k gives +0")
		}
		if c.At(0, 0) != 0 || c.At(0, 1) != math.Copysign(0, -1) {
			// row: 0·5 + (−0)·7 + 1·0 = +0 ; 0·(−0) + (−0)·3 + 1·(−0) = −0
			t.Fatalf("signed-zero result drifted: %v", c.Data)
		}
	})
}

// Regression for the aliasing-detector bug: the old mustNotShareData only
// compared first-element identity, so a destination overlapping a source
// mid-buffer sailed through and silently corrupted the product.
func TestMustNotShareDataCatchesPartialOverlap(t *testing.T) {
	backing := make([]float64, 64)
	a := FromSlice(4, 4, backing[:16])
	dst := FromSlice(4, 4, backing[8:24]) // overlaps a's tail, different first element
	b := FromSlice(4, 4, backing[32:48])  // disjoint
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with dst overlapping a mid-buffer did not panic")
		}
	}()
	MatMulInto(dst, a, b)
}

func TestMustNotShareDataAllowsDisjointViews(t *testing.T) {
	backing := make([]float64, 48)
	a := FromSlice(4, 4, backing[:16])
	b := FromSlice(4, 4, backing[16:32])
	dst := FromSlice(4, 4, backing[32:48])
	MatMulInto(dst, a, b) // adjacent but disjoint views of one array: legal
}

// Regression for the pinned worker pool: the pool used to be sized once,
// at first use, to the then-current GOMAXPROCS; raising GOMAXPROCS later
// left every dispatch under-parallelised forever.
func TestWorkerPoolGrowsWithGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	workerPool() // pin at 2 first, as a first caller would
	runtime.GOMAXPROCS(6)
	workerPool()
	if got := int(poolSize.Load()); got < 6 {
		t.Fatalf("worker pool has %d workers after GOMAXPROCS raised to 6", got)
	}
}

func TestSlicesOverlap(t *testing.T) {
	backing := make([]float64, 10)
	cases := []struct {
		a, b []float64
		want bool
	}{
		{backing[0:4], backing[4:8], false},
		{backing[0:5], backing[4:8], true},
		{backing[2:3], backing[0:10], true},
		{backing[0:0], backing[0:10], false}, // empty never overlaps
		{make([]float64, 4), backing[0:4], false},
	}
	for i, c := range cases {
		if got := slicesOverlap(c.a, c.b); got != c.want {
			t.Fatalf("case %d: slicesOverlap = %v want %v", i, got, c.want)
		}
		if got := slicesOverlap(c.b, c.a); got != c.want {
			t.Fatalf("case %d reversed: slicesOverlap = %v want %v", i, got, c.want)
		}
	}
}

// FuzzMatMulFamilies runs one matmul family on an m×k·k×n product, every
// dimension ≤ 80 so shapes cross the register tile, the remainder rows and
// columns and the k-tile edge, at either width: MatMulInto, MatMulT1Into,
// AddMatMulT1Into from a non-zero start and MatMulT2Into (family%4; bit 2
// picks float32). Every leaf tier the host has must equal a naive
// ascending-k triple loop to the bit.
func FuzzMatMulFamilies(f *testing.F) {
	for _, s := range [][5]int{{50, 65, 17, 1, 0}, {9, 64, 8, 2, 1}, {5, 48, 33, 3, 2},
		{4, 1, 16, 4, 3}, {0, 7, 9, 5, 4}, {7, 0, 3, 6, 6}, {80, 80, 80, 7, 7}, {1, 63, 1, 8, 5}} {
		f.Add(uint8(s[0]), uint8(s[1]), uint8(s[2]), uint64(s[3]), uint8(s[4]))
	}
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed uint64, family uint8) {
		if family&4 != 0 {
			fuzzFamily[float32](t, int(m%81), int(k%81), int(n%81), seed, family%4)
		} else {
			fuzzFamily[float64](t, int(m%81), int(k%81), int(n%81), seed, family%4)
		}
	})
}

func fuzzFamily[F Float](t *testing.T, m, k, n int, seed uint64, family uint8) {
	rng := NewRNG(seed)
	mat := func(rows, cols int) *Matrix[F] {
		out := new(Matrix[F]).Resize(rows, cols)
		for i := range out.Data {
			out.Data[i] = F(rng.NormFloat64())
		}
		return out
	}
	// a(i, kk) and b(kk, j) read the operands as the family lays them out.
	var a, b, start *Matrix[F]
	var av, bv func(i, kk int) F
	var run func(dst *Matrix[F])
	switch family {
	case 0:
		a, b = mat(m, k), mat(k, n)
		av, bv = a.At, b.At
		run = func(dst *Matrix[F]) { MatMulInto(dst, a, b) }
	case 1, 2:
		a, b = mat(k, m), mat(k, n)
		av, bv = func(i, kk int) F { return a.At(kk, i) }, b.At
		run = func(dst *Matrix[F]) { MatMulT1Into(dst, a, b) }
		if family == 2 {
			start = mat(m, n)
			run = func(dst *Matrix[F]) { AddMatMulT1Into(dst.Resize(m, n), a, b) }
		}
	default:
		a, b = mat(m, k), mat(n, k)
		av, bv = a.At, func(kk, j int) F { return b.At(j, kk) }
		run = func(dst *Matrix[F]) { MatMulT2Into(dst, a, b) }
	}
	want := new(Matrix[F]).Resize(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s F
			if start != nil {
				s = start.At(i, j)
			}
			for kk := 0; kk < k; kk++ {
				s += av(i, kk) * bv(kk, j)
			}
			want.Set(i, j, s)
		}
	}
	detected := leafTier
	defer func() { leafTier = detected }()
	for tier := detected; tier >= tierGeneric; tier-- {
		leafTier = tier
		got := new(Matrix[F])
		if start != nil {
			got = start.Clone()
		}
		run(got)
		if got.Rows != m || got.Cols != n {
			t.Fatalf("family %d %s: %d×%d result, want %d×%d", family, tierNames[tier], got.Rows, got.Cols, m, n)
		}
		requireSameBits(t, fmt.Sprintf("family %d %d×%d·%d×%d %s", family, m, k, k, n, tierNames[tier]), got.Data, want.Data)
	}
}
