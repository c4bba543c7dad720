package tensor

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n³) triple loop used to validate the
// optimised kernels.
func naiveMul(a, b *Mat) *Mat {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randMat(rows, cols int, rng *RNG) *Mat {
	m := New(rows, cols)
	GaussianFill(m, 0, 1, rng)
	return m
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMulInto(new(Mat), a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !c.Equal(want) {
		t.Fatalf("MatMul = %v want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := randMat(7, 7, rng)
	if !MatMulInto(new(Mat), a, Eye(7)).ApproxEqual(a, 1e-12) {
		t.Fatal("a·I != a")
	}
	if !MatMulInto(new(Mat), Eye(7), a).ApproxEqual(a, 1e-12) {
		t.Fatal("I·a != a")
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMulInto(new(Mat), New(2, 3), New(4, 2))
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(2)
	for _, sz := range [][3]int{{1, 1, 1}, {3, 5, 2}, {10, 4, 7}, {33, 17, 29}} {
		a := randMat(sz[0], sz[1], rng)
		b := randMat(sz[1], sz[2], rng)
		if !MatMulInto(new(Mat), a, b).ApproxEqual(naiveMul(a, b), 1e-9) {
			t.Fatalf("MatMul disagrees with naive at %v", sz)
		}
	}
}

func TestMatMulLargeParallelPath(t *testing.T) {
	rng := NewRNG(3)
	a := randMat(120, 90, rng)
	b := randMat(90, 110, rng)
	// 120*90*110 > parallelThreshold, exercising the ParallelFor path.
	if !MatMulInto(new(Mat), a, b).ApproxEqual(naiveMul(a, b), 1e-8) {
		t.Fatal("parallel MatMul disagrees with naive")
	}
}

func TestMatMulT1MatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(4)
	a := randMat(13, 8, rng)
	b := randMat(13, 6, rng)
	got := MatMulT1Into(new(Mat), a, b)
	want := MatMulInto(new(Mat), a.T(), b)
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatal("MatMulT1 != T(a)·b")
	}
}

func TestMatMulT2MatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(5)
	a := randMat(9, 11, rng)
	b := randMat(7, 11, rng)
	got := MatMulT2Into(new(Mat), a, b)
	want := MatMulInto(new(Mat), a, b.T())
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatal("MatMulT2 != a·T(b)")
	}
}

func TestMatMulT1LargeParallelPath(t *testing.T) {
	rng := NewRNG(6)
	a := randMat(100, 80, rng)
	b := randMat(100, 90, rng)
	if !MatMulT1Into(new(Mat), a, b).ApproxEqual(MatMulInto(new(Mat), a.T(), b), 1e-8) {
		t.Fatal("parallel MatMulT1 wrong")
	}
}

func TestMatMulT2LargeParallelPath(t *testing.T) {
	rng := NewRNG(7)
	a := randMat(100, 90, rng)
	b := randMat(80, 90, rng)
	if !MatMulT2Into(new(Mat), a, b).ApproxEqual(MatMulInto(new(Mat), a, b.T()), 1e-8) {
		t.Fatal("parallel MatMulT2 wrong")
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	n := 1000
	marks := make([]int32, n)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	ParallelFor(n, 7, func(lo, hi int) {
		<-mu
		for i := lo; i < hi; i++ {
			marks[i]++
		}
		mu <- struct{}{}
	})
	for i, c := range marks {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestParallelForEmptyAndSmall(t *testing.T) {
	called := 0
	ParallelFor(0, 1, func(lo, hi int) { called++ })
	if called != 0 {
		t.Fatal("ParallelFor(0) must not invoke f")
	}
	ParallelFor(3, 100, func(lo, hi int) {
		called++
		if lo != 0 || hi != 3 {
			t.Fatalf("small n should run inline over [0,3), got [%d,%d)", lo, hi)
		}
	})
	if called != 1 {
		t.Fatalf("inline path called %d times", called)
	}
}

// Property: matrix multiplication distributes over addition.
func TestQuickMatMulDistributes(t *testing.T) {
	rng := NewRNG(99)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(8)
		k := 1 + r.Intn(8)
		m := 1 + r.Intn(8)
		a := randMat(n, k, rng)
		b := randMat(k, m, rng)
		c := randMat(k, m, rng)
		bc := b.Clone()
		bc.Add(c)
		left := MatMulInto(new(Mat), a, bc)
		right := MatMulInto(new(Mat), a, b)
		right.Add(MatMulInto(new(Mat), a, c))
		return left.ApproxEqual(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a·b)ᵀ == bᵀ·aᵀ.
func TestQuickMatMulTransposeLaw(t *testing.T) {
	rng := NewRNG(100)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(6)
		k := 1 + r.Intn(6)
		m := 1 + r.Intn(6)
		a := randMat(n, k, rng)
		b := randMat(k, m, rng)
		left := MatMulInto(new(Mat), a, b).T()
		right := MatMulInto(new(Mat), b.T(), a.T())
		return left.ApproxEqual(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is absolutely homogeneous: ‖αm‖ = |α|‖m‖.
func TestQuickNormHomogeneous(t *testing.T) {
	f := func(seed uint64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			return true
		}
		r := NewRNG(seed)
		m := randMat(1+r.Intn(5), 1+r.Intn(5), r)
		want := math.Abs(alpha) * m.Norm2()
		m.Scale(alpha)
		return math.Abs(m.Norm2()-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
