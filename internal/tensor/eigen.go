package tensor

import (
	"fmt"
	"math"
	"sort"
)

// IsSymmetric reports whether m is square and symmetric within tol.
func IsSymmetric(m *Mat, tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// SymEigen computes the eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method: a = V·diag(values)·Vᵀ with orthonormal
// eigenvector columns in V. Eigenvalues are returned in descending order.
// It backs the full-covariance Fréchet distance, whose matrix square
// roots reduce to eigenvalue square roots.
func SymEigen(a *Mat) (values []float64, vectors *Mat, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("tensor: SymEigen needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if !IsSymmetric(a, 1e-8*(1+a.Norm2())) {
		return nil, nil, fmt.Errorf("tensor: SymEigen needs a symmetric matrix")
	}
	// Work on a copy; accumulate rotations in v.
	w := a.Clone()
	v := Eye(n)

	offdiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := w.At(i, j)
				s += x * x
			}
		}
		return s
	}
	scale := w.Norm2()
	if scale == 0 {
		scale = 1
	}
	const maxSweeps = 100
	tol := 1e-22 * scale * scale
	for sweep := 0; sweep < maxSweeps && offdiag() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Jacobi rotation angle.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation to rows/cols p and q of w.
				for k := 0; k < n; k++ {
					akp := w.At(k, p)
					akq := w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk := w.At(p, k)
					aqk := w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	values = make([]float64, n)
	for i := range values {
		values[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return values[order[i]] > values[order[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for newCol, oldCol := range order {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// Covariance returns the d×d sample covariance matrix of the rows of x
// (n×d), using the n-1 normalisation.
func Covariance(x *Mat) (*Mat, error) {
	n, d := x.Rows, x.Cols
	if n < 2 {
		return nil, fmt.Errorf("tensor: covariance needs at least 2 samples, got %d", n)
	}
	mu := make([]float64, d)
	for i := 0; i < n; i++ {
		for j, v := range x.Row(i) {
			mu[j] += v / float64(n)
		}
	}
	centered := New(n, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		out := centered.Row(i)
		for j := range row {
			out[j] = row[j] - mu[j]
		}
	}
	cov := MatMulT1Into(new(Mat), centered, centered)
	cov.Scale(1 / float64(n-1))
	return cov, nil
}

// TraceSqrtProduct computes tr((a·b)^{1/2}) for symmetric positive
// semi-definite a and b, the cross term of the Fréchet distance. It uses
// tr((a·b)^{1/2}) = Σᵢ √λᵢ(a·b) with λ(a·b) computed through the
// symmetric similarity √a·b·√a. Tiny negative eigenvalues from numerical
// noise are clamped to zero.
func TraceSqrtProduct(a, b *Mat) (float64, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return 0, fmt.Errorf("tensor: TraceSqrtProduct needs equal square matrices")
	}
	va, ve, err := SymEigen(a)
	if err != nil {
		return 0, fmt.Errorf("tensor: sqrt of first factor: %w", err)
	}
	n := a.Rows
	// sqrtA = V diag(sqrt(max(λ,0))) Vᵀ
	d := New(n, n)
	for i, l := range va {
		if l > 0 {
			d.Set(i, i, math.Sqrt(l))
		}
	}
	// (V·d)·Vᵀ via the transposed-operand kernel: no materialised Vᵀ.
	sqrtA := MatMulT2Into(new(Mat), MatMulInto(new(Mat), ve, d), ve)
	m := MatMulInto(new(Mat), MatMulInto(new(Mat), sqrtA, b), sqrtA)
	// Symmetrise against round-off before the second decomposition,
	// pairwise in place: both elements of each (i,j)/(j,i) pair are set to
	// their mean, which matches m.Add(m.T()); m.Scale(0.5) bit for bit
	// (IEEE addition is commutative) without the transpose temporary.
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := (m.At(i, j) + m.At(j, i)) * 0.5
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	vm, _, err := SymEigen(m)
	if err != nil {
		return 0, fmt.Errorf("tensor: sqrt of product: %w", err)
	}
	tr := 0.0
	for _, l := range vm {
		if l > 0 {
			tr += math.Sqrt(l)
		}
	}
	return tr, nil
}
