package tensor

import (
	"math"
	"testing"
)

// naiveIm2Col is an index-arithmetic-free reference: walk every output cell
// and look the source pixel up directly.
func naiveIm2Col[F Float](img *Matrix[F], c, h, w, k, stride, pad, posH, posW int) *Matrix[F] {
	pos := posH * posW
	out := new(Matrix[F]).Resize(img.Rows*pos, c*k*k)
	for b := 0; b < img.Rows; b++ {
		for py := 0; py < posH; py++ {
			for px := 0; px < posW; px++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							y := py*stride - pad + ky
							x := px*stride - pad + kx
							var v F
							if y >= 0 && y < h && x >= 0 && x < w {
								v = img.At(b, (ch*h+y)*w+x)
							}
							out.Set(b*pos+py*posW+px, (ch*k+ky)*k+kx, v)
						}
					}
				}
			}
		}
	}
	return out
}

// naiveCol2Im is the direct scatter loop AddCol2ImInto must match to the
// bit: every in-bounds tap added into dst in (sample, position, column)
// order.
func naiveCol2Im[F Float](dst, cols *Matrix[F], c, h, w, k, stride, pad, posH, posW int) {
	pos := posH * posW
	for b := 0; b < dst.Rows; b++ {
		for py := 0; py < posH; py++ {
			for px := 0; px < posW; px++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							y := py*stride - pad + ky
							x := px*stride - pad + kx
							if y >= 0 && y < h && x >= 0 && x < w {
								i := (ch*h+y)*w + x
								dst.Set(b, i, dst.At(b, i)+cols.At(b*pos+py*posW+px, (ch*k+ky)*k+kx))
							}
						}
					}
				}
			}
		}
	}
}

// lowering is one gather/scatter geometry.
type lowering struct{ c, h, w, k, stride, pad, posH, posW int }

// loweringCases are the geometries both kernels are held to the naive
// loops on.
var loweringCases = []lowering{
	{1, 4, 4, 2, 2, 0, 2, 2},
	{2, 5, 7, 3, 2, 1, 3, 4},     // asymmetric h≠w
	{3, 6, 6, 1, 1, 0, 6, 6},     // 1×1 kernel
	{1, 28, 28, 4, 2, 1, 14, 14}, // the DCGAN discriminator's first conv
	{2, 3, 3, 3, 1, 2, 5, 5},     // pad larger than stride
	{16, 14, 14, 4, 2, 1, 7, 7},  // the DCGAN discriminator's second conv
	{2, 9, 8, 3, 2, 0, 3, 2},     // positions leave the last rows and columns untapped
	{32, 14, 14, 4, 2, 1, 7, 7},  // crosses parallelThreshold at batch 3
}

// firstBitDiff returns the first index where got and want differ in their
// bits, or -1.
func firstBitDiff[F Float](got, want []F) int {
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			return i
		}
	}
	return -1
}

func TestIm2ColMatchesNaive(t *testing.T) {
	rng := NewRNG(7)
	for _, tc := range loweringCases {
		img := New(3, tc.c*tc.h*tc.w)
		GaussianFill(img, 0, 1, rng)
		got := Im2ColInto(new(Mat), img, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad, tc.posH, tc.posW)
		want := naiveIm2Col(img, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad, tc.posH, tc.posW)
		if !got.Equal(want) {
			t.Fatalf("Im2ColInto mismatch for %+v", tc)
		}
	}
}

// TestCol2ImMatchesNaive holds AddCol2ImInto to the direct scatter loop
// bit for bit at both widths, from a destination holding non-zero values,
// −0 and an Inf.
func TestCol2ImMatchesNaive(t *testing.T) {
	for i, tc := range loweringCases {
		checkLowering[float64](t, tc, 3, uint64(i))
		checkLowering[float32](t, tc, 3, uint64(i))
	}
}

// checkLowering runs Im2ColInto and AddCol2ImInto on a batch of random
// samples in geometry g and compares both with the naive loops bit for bit.
func checkLowering[F Float](t *testing.T, g lowering, batch int, seed uint64) {
	t.Helper()
	rng := NewRNG(seed)
	mat := func(rows, cols int) *Matrix[F] {
		m := new(Matrix[F]).Resize(rows, cols)
		for i := range m.Data {
			m.Data[i] = F(rng.NormFloat64())
		}
		return m
	}
	img := mat(batch, g.c*g.h*g.w)
	got := Im2ColInto(new(Matrix[F]), img, g.c, g.h, g.w, g.k, g.stride, g.pad, g.posH, g.posW)
	if i := firstBitDiff(got.Data, naiveIm2Col(img, g.c, g.h, g.w, g.k, g.stride, g.pad, g.posH, g.posW).Data); i >= 0 {
		t.Fatalf("%T Im2ColInto %+v batch %d: element %d differs", F(0), g, batch, i)
	}
	cols := mat(batch*g.posH*g.posW, g.c*g.k*g.k)
	dst := mat(batch, g.c*g.h*g.w)
	for i := range dst.Data {
		switch rng.Intn(8) {
		case 0:
			dst.Data[i] = F(math.Copysign(0, -1))
		case 1:
			dst.Data[i] = F(math.Inf(1))
		}
	}
	want := dst.Clone()
	naiveCol2Im(want, cols, g.c, g.h, g.w, g.k, g.stride, g.pad, g.posH, g.posW)
	AddCol2ImInto(dst, cols, g.c, g.h, g.w, g.k, g.stride, g.pad, g.posH, g.posW)
	if i := firstBitDiff(dst.Data, want.Data); i >= 0 {
		t.Fatalf("%T AddCol2ImInto %+v batch %d: element %d = %v, want %v", F(0), g, batch, i, dst.Data[i], want.Data[i])
	}
}

// FuzzConvLowering derives a small geometry — k from 1 to 5, so both the
// four-element run and the plain loop, any stride, pad and position grid —
// and a batch of up to 48 samples, which on the larger geometries crosses
// parallelThreshold and runs on the worker pool; Im2ColInto and
// AddCol2ImInto must equal the naive loops bit for bit at either width.
func FuzzConvLowering(f *testing.F) {
	for _, s := range [][9]uint8{
		{0, 27, 27, 3, 1, 1, 13, 13, 2}, {2, 13, 13, 3, 1, 1, 6, 6, 47},
		{1, 4, 6, 2, 0, 2, 3, 4, 5}, {0, 8, 7, 0, 0, 0, 8, 7, 1}, {2, 8, 7, 2, 1, 0, 2, 2, 3},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], uint64(s[8]), s[8]%2 == 0)
	}
	f.Fuzz(func(t *testing.T, c, h, w, k, stride, pad, posH, posW, batch uint8, seed uint64, f32 bool) {
		g := lowering{1 + int(c%3), 1 + int(h%28), 1 + int(w%28), 1 + int(k%5), 1 + int(stride%3),
			int(pad % 4), 1 + int(posH%14), 1 + int(posW%14)}
		if f32 {
			checkLowering[float32](t, g, 1+int(batch%48), seed)
		} else {
			checkLowering[float64](t, g, 1+int(batch%48), seed)
		}
	})
}

// TestCol2ImAdjoint checks the defining property of the scatter:
// ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ for random x, y — col2im is the exact
// adjoint of the gather, including dropped out-of-bounds taps.
func TestCol2ImAdjoint(t *testing.T) {
	rng := NewRNG(11)
	c, h, w, k, stride, pad, posH, posW := 2, 5, 6, 3, 2, 1, 3, 3
	x := New(2, c*h*w)
	GaussianFill(x, 0, 1, rng)
	y := New(2*posH*posW, c*k*k)
	GaussianFill(y, 0, 1, rng)

	gx := Im2ColInto(new(Mat), x, c, h, w, k, stride, pad, posH, posW)
	sy := Col2ImInto(new(Mat), y, c, h, w, k, stride, pad, posH, posW)

	var lhs, rhs float64
	for i, v := range gx.Data {
		lhs += v * y.Data[i]
	}
	for i, v := range sy.Data {
		rhs += v * x.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

// With k == stride and no padding the patches tile the image exactly, so
// col2im(im2col(x)) must reproduce x bit-for-bit.
func TestCol2ImRoundTripNonOverlapping(t *testing.T) {
	rng := NewRNG(3)
	c, h, w, k := 2, 6, 4, 2
	x := New(3, c*h*w)
	GaussianFill(x, 0, 1, rng)
	cols := Im2ColInto(new(Mat), x, c, h, w, k, k, 0, h/k, w/k)
	back := Col2ImInto(new(Mat), cols, c, h, w, k, k, 0, h/k, w/k)
	if !back.Equal(x) {
		t.Fatal("non-overlapping col2im∘im2col is not the identity")
	}
}

// AddCol2ImInto must accumulate on top of existing contents.
func TestAddCol2ImAccumulates(t *testing.T) {
	rng := NewRNG(5)
	c, h, w, k := 1, 4, 4, 2
	cols := New(1*2*2, c*k*k)
	GaussianFill(cols, 0, 1, rng)
	base := New(1, c*h*w)
	for i := range base.Data {
		base.Data[i] = 10
	}
	AddCol2ImInto(base, cols, c, h, w, k, k, 0, 2, 2)
	scattered := Col2ImInto(new(Mat), cols, c, h, w, k, k, 0, 2, 2)
	for i := range base.Data {
		if base.Data[i] != 10+scattered.Data[i] {
			t.Fatalf("element %d: %g, want %g", i, base.Data[i], 10+scattered.Data[i])
		}
	}
}

// The batch loop is parallelised; repeated runs must be bit-identical.
func TestIm2ColDeterministic(t *testing.T) {
	rng := NewRNG(13)
	img := New(64, 1*28*28)
	GaussianFill(img, 0, 1, rng)
	a := Im2ColInto(new(Mat), img, 1, 28, 28, 4, 2, 1, 14, 14)
	b := Im2ColInto(new(Mat), img, 1, 28, 28, 4, 2, 1, 14, 14)
	if !a.Equal(b) {
		t.Fatal("Im2ColInto not deterministic across runs")
	}
	s1 := Col2ImInto(new(Mat), a, 1, 28, 28, 4, 2, 1, 14, 14)
	s2 := Col2ImInto(new(Mat), b, 1, 28, 28, 4, 2, 1, 14, 14)
	if !s1.Equal(s2) {
		t.Fatal("Col2ImInto not deterministic across runs")
	}
}

func TestIm2ColPanics(t *testing.T) {
	cases := []func(){
		func() { Im2ColInto(new(Mat), New(1, 12), 2, 2, 2, 2, 1, 0, 1, 1) },     // wrong image width
		func() { Im2ColInto(new(Mat), New(1, 8), 2, 2, 2, 2, 0, 0, 1, 1) },      // stride 0
		func() { Col2ImInto(new(Mat), New(5, 4), 1, 4, 4, 2, 2, 0, 2, 2) },      // rows not divisible
		func() { AddCol2ImInto(New(1, 15), New(4, 4), 1, 4, 4, 2, 2, 0, 2, 2) }, // wrong dst width
		func() { AddCol2ImInto(New(2, 16), New(4, 4), 1, 4, 4, 2, 2, 0, 2, 2) }, // wrong cols rows
		func() { AddCol2ImInto(New(1, 16), New(4, 3), 1, 4, 4, 2, 2, 0, 2, 2) }, // wrong cols width
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
