package tensor

import (
	"math"
	"testing"
)

// Mat32 is the float32 instantiation of the one generic Matrix and kernel
// set, so the structural edge cases are covered by the float64
// bit-exactness sweep; here we bound the float32-vs-float64 error and
// exercise the float32 instantiation's plumbing (conversions, aliasing
// checks, the col2im scatter, the per-element-type task pools).

// f32Tolerance bounds the relative error of a float32 reduction of k
// terms against the float64 result: each of the ~k rounding steps
// contributes at most half a ulp (2⁻²⁴).
func f32Tolerance(k int) float64 {
	return float64(k+4) * math.Exp2(-24)
}

// wideMat widens m to float64 (exact).
func wideMat(m *Mat32) *Mat {
	w := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		w.Data[i] = float64(v)
	}
	return w
}

func TestFloat32MatMulIntoMatchesFloat64(t *testing.T) {
	rng := NewRNG(21)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {2, 63, 7}, {4, 64, 4}, {5, 65, 3}, {33, 17, 29}, {64, 64, 64}, {130, 64, 96}}
	for _, sz := range shapes {
		m, k, n := sz[0], sz[1], sz[2]
		a := randMat(m, k, rng)
		b := randMat(k, n, rng)
		a32, b32 := Narrow(a), Narrow(b)
		got := wideMat(MatMulInto(new(Mat32), a32, b32))
		// Compare against the product of the narrowed operands in float64,
		// so only the accumulation precision differs.
		want := naiveMul(wideMat(a32), wideMat(b32))
		tol := f32Tolerance(k)
		for i := range got.Data {
			ref := want.Data[i]
			if math.Abs(got.Data[i]-ref) > tol*(1+math.Abs(ref))*float64(k) {
				t.Fatalf("float32 MatMulInto at %v element %d: got %g want %g", sz, i, got.Data[i], ref)
			}
		}
	}
}

func TestFloat32MatMulT2IntoMatchesFloat64(t *testing.T) {
	rng := NewRNG(22)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {2, 63, 7}, {4, 64, 5}, {9, 65, 3}, {31, 33, 29}}
	for _, sz := range shapes {
		m, k, n := sz[0], sz[1], sz[2]
		a := randMat(m, k, rng)
		b := randMat(n, k, rng)
		a32, b32 := Narrow(a), Narrow(b)
		got := wideMat(MatMulT2Into(new(Mat32), a32, b32))
		want := naiveMulT2(wideMat(a32), wideMat(b32))
		tol := f32Tolerance(k)
		for i := range got.Data {
			ref := want.Data[i]
			if math.Abs(got.Data[i]-ref) > tol*(1+math.Abs(ref))*float64(k) {
				t.Fatalf("float32 MatMulT2Into at %v element %d: got %g want %g", sz, i, got.Data[i], ref)
			}
		}
	}
}

func TestFloat32MatMulIntoPropagatesNonFinite(t *testing.T) {
	a := FromSlice(1, 2, []float32{0, 1})
	b := FromSlice(2, 1, []float32{float32(math.NaN()), 2})
	got := MatMulInto(new(Mat32), a, b).At(0, 0)
	if !math.IsNaN(float64(got)) {
		t.Fatalf("float32 kernel lost the NaN: got %v", got)
	}
}

func TestFloat32MatMulIntoAliasPanics(t *testing.T) {
	backing := make([]float32, 32)
	a := FromSlice(4, 4, backing[:16])
	dst := FromSlice(4, 4, backing[8:24])
	b := new(Mat32).Resize(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("float32 MatMulInto with overlapping dst did not panic")
		}
	}()
	MatMulInto(dst, a, b)
}

func TestFloat32AddCol2ImIntoMatchesFloat64(t *testing.T) {
	rng := NewRNG(23)
	// ConvTranspose2D geometry from the repo's CNN generator: 2 samples,
	// c=3 channels, 4×4 kernel scattering a 7×7 grid into 14×14 images.
	const bsz, c, h, w, k, stride, pad = 2, 3, 14, 14, 4, 2, 1
	const posH, posW = 7, 7
	cols := randMat(bsz*posH*posW, c*k*k, rng)
	dst := randMat(bsz, c*h*w, rng)

	dst32 := Narrow(dst)
	cols32 := Narrow(cols)
	AddCol2ImInto(dst32, cols32, c, h, w, k, stride, pad, posH, posW)

	ref := wideMat(Narrow(dst)) // start from the narrowed seed
	AddCol2ImInto(ref, wideMat(cols32), c, h, w, k, stride, pad, posH, posW)

	got := wideMat(dst32)
	maxTaps := k * k // overlapping contributions per output pixel ≤ k²/stride² per channel tap
	tol := f32Tolerance(maxTaps) * 4
	for i := range got.Data {
		if math.Abs(got.Data[i]-ref.Data[i]) > tol*(1+math.Abs(ref.Data[i])) {
			t.Fatalf("float32 AddCol2ImInto element %d: got %g want %g", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestNarrowWidenRoundTrip(t *testing.T) {
	rng := NewRNG(24)
	m := randMat(5, 7, rng)
	w := wideMat(Narrow(m))
	for i := range m.Data {
		if float32(m.Data[i]) != float32(w.Data[i]) {
			t.Fatalf("round trip drifted at %d: %g vs %g", i, m.Data[i], w.Data[i])
		}
	}
	if !m.ApproxEqual(w, 1e-6) {
		t.Fatal("narrow/widen lost more than float32 precision")
	}
}

func TestMat32AddRowVecAndApply(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	m.AddRowVec(FromSlice(1, 3, []float32{10, 20, 30}))
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("AddRowVec: %v", m.Data)
		}
	}
	TanhInto(m.Data, m.Data)
	if m.Data[0] != float32(Tanh(11)) || m.Data[5] != float32(Tanh(36)) {
		t.Fatalf("float32 TanhInto in place: %v", m.Data)
	}
}

func TestFloat32IntoKernelsAllocs(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		rng := NewRNG(25)
		a := Narrow(randMat(16, 24, rng))
		b := Narrow(randMat(24, 16, rng))
		bt := Narrow(randMat(16, 24, rng))
		dst := new(Mat32).Resize(16, 16)
		const c, h, w, k2, stride, pad, posH, posW = 1, 6, 6, 2, 2, 0, 3, 3
		img := new(Mat32).Resize(2, c*h*w)
		cols := Narrow(randMat(2*posH*posW, c*k2*k2, rng))
		checkZeroAllocs(t, []allocCheck{
			{"MatMulInto", func() { MatMulInto(dst, a, b) }},
			{"MatMulT2Into", func() { MatMulT2Into(dst, a, bt) }},
			{"AddCol2ImInto", func() { AddCol2ImInto(img, cols, c, h, w, k2, stride, pad, posH, posW) }},
			{"GaussianFill", func() { GaussianFill(a, 0, 1, rng) }},
		})
	})
}
