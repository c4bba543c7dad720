package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 5)
	a.Set(2, 2, 3)
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals %v want %v", vals, want)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit vectors.
	for c := 0; c < 3; c++ {
		nonzero := 0
		for r := 0; r < 3; r++ {
			if math.Abs(vecs.At(r, c)) > 1e-9 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Fatalf("eigenvector %d not axis-aligned: %v", c, vecs)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromSlice(2, 2, []float64{2, 1, 1, 2})
	vals, _, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals %v", vals)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := NewRNG(4)
	for _, n := range []int{1, 2, 5, 12, 30} {
		// Random symmetric matrix.
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Orthogonality: VᵀV = I.
		vtv := MatMulT1Into(new(Mat), vecs, vecs)
		if !vtv.ApproxEqual(Eye(n), 1e-8) {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
		// Reconstruction: V diag(vals) Vᵀ = a.
		d := New(n, n)
		for i, l := range vals {
			d.Set(i, i, l)
		}
		rec := MatMulInto(new(Mat), MatMulInto(new(Mat), vecs, d), vecs.T())
		if !rec.ApproxEqual(a, 1e-8) {
			t.Fatalf("n=%d: reconstruction failed", n)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("n=%d: eigenvalues not sorted: %v", n, vals)
			}
		}
	}
}

func TestSymEigenValidation(t *testing.T) {
	if _, _, err := SymEigen(New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	asym := FromSlice(2, 2, []float64{0, 1, -1, 0})
	if _, _, err := SymEigen(asym); err == nil {
		t.Fatal("asymmetric accepted")
	}
	// Zero matrix works.
	vals, _, err := SymEigen(New(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != 0 {
			t.Fatalf("zero-matrix eigenvalues %v", vals)
		}
	}
}

func TestQuickSymEigenTraceInvariant(t *testing.T) {
	// Trace equals the eigenvalue sum; Frobenius norm equals the
	// eigenvalue 2-norm.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, _, err := SymEigen(a)
		if err != nil {
			return false
		}
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		frob2, eig2 := 0.0, 0.0
		for _, v := range a.Data {
			frob2 += v * v
		}
		for _, l := range vals {
			sum += l
			eig2 += l * l
		}
		return math.Abs(trace-sum) < 1e-8*(1+math.Abs(trace)) &&
			math.Abs(frob2-eig2) < 1e-6*(1+frob2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCovariance(t *testing.T) {
	// Two perfectly correlated dimensions.
	x := FromSlice(4, 2, []float64{0, 0, 1, 2, 2, 4, 3, 6})
	cov, err := Covariance(x)
	if err != nil {
		t.Fatal(err)
	}
	// var(x0) = 5/3, cov = 10/3, var(x1) = 20/3.
	if math.Abs(cov.At(0, 0)-5.0/3) > 1e-12 ||
		math.Abs(cov.At(0, 1)-10.0/3) > 1e-12 ||
		math.Abs(cov.At(1, 1)-20.0/3) > 1e-12 {
		t.Fatalf("cov %v", cov)
	}
	if !IsSymmetric(cov, 1e-12) {
		t.Fatal("covariance not symmetric")
	}
	if _, err := Covariance(New(1, 3)); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestTraceSqrtProductIdentity(t *testing.T) {
	// tr((I·I)^½) = n.
	got, err := TraceSqrtProduct(Eye(4), Eye(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("tr = %v", got)
	}
}

func TestTraceSqrtProductDiagonal(t *testing.T) {
	// Diagonal PSD matrices: tr((ab)^½) = Σ √(aᵢbᵢ).
	a := New(3, 3)
	b := New(3, 3)
	av := []float64{1, 4, 9}
	bv := []float64{4, 1, 16}
	want := 0.0
	for i := 0; i < 3; i++ {
		a.Set(i, i, av[i])
		b.Set(i, i, bv[i])
		want += math.Sqrt(av[i] * bv[i])
	}
	got, err := TraceSqrtProduct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tr = %v want %v", got, want)
	}
}

func TestTraceSqrtProductSameMatrix(t *testing.T) {
	// tr((Σ·Σ)^½) = tr(Σ) for PSD Σ.
	rng := NewRNG(8)
	x := New(50, 5)
	GaussianFill(x, 0, 1, rng)
	cov, err := Covariance(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TraceSqrtProduct(cov, cov)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 5; i++ {
		want += cov.At(i, i)
	}
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("tr = %v want %v", got, want)
	}
}

func TestTraceSqrtProductValidation(t *testing.T) {
	if _, err := TraceSqrtProduct(New(2, 2), New(3, 3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := TraceSqrtProduct(New(2, 3), New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}
