package tensor

import "testing"

func benchMat(rows, cols int, seed uint64) *Mat {
	m := New(rows, cols)
	GaussianFill(m, 0, 1, NewRNG(seed))
	return m
}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		a := benchMat(n, n, 1)
		c := benchMat(n, n, 2)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n * n))
			for i := 0; i < b.N; i++ {
				_ = MatMul(a, c)
			}
		})
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		a := benchMat(n, n, 1)
		c := benchMat(n, n, 2)
		dst := New(n, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, c)
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 16:
		return "16x16"
	case 64:
		return "64x64"
	case 256:
		return "256x256"
	default:
		return "n"
	}
}

func BenchmarkMatMulT1(b *testing.B) {
	a := benchMat(100, 256, 1)
	c := benchMat(100, 784, 2)
	b.SetBytes(int64(8 * 100 * 256 * 784))
	for i := 0; i < b.N; i++ {
		_ = MatMulT1(a, c)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	a := benchMat(100, 784, 1)
	c := benchMat(256, 784, 2)
	b.SetBytes(int64(8 * 100 * 784 * 256))
	for i := 0; i < b.N; i++ {
		_ = MatMulT2(a, c)
	}
}

func BenchmarkMatMulT1Into(b *testing.B) {
	a := benchMat(100, 256, 1)
	c := benchMat(100, 784, 2)
	dst := New(256, 784)
	b.SetBytes(int64(8 * 100 * 256 * 784))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT1Into(dst, a, c)
	}
}

func BenchmarkAddMatMulT1Into(b *testing.B) {
	a := benchMat(100, 256, 1)
	c := benchMat(100, 784, 2)
	dst := New(256, 784)
	b.SetBytes(int64(8 * 100 * 256 * 784))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddMatMulT1Into(dst, a, c)
	}
}

func BenchmarkMatMulT2Into(b *testing.B) {
	a := benchMat(100, 784, 1)
	c := benchMat(256, 784, 2)
	dst := New(100, 256)
	b.SetBytes(int64(8 * 100 * 784 * 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT2Into(dst, a, c)
	}
}

func BenchmarkMatMulIntoF32(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		a := Narrow(benchMat(n, n, 1))
		c := Narrow(benchMat(n, n, 2))
		dst := new(Mat32)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(4 * n * n * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, c)
			}
		})
	}
}

func BenchmarkMatMulT2IntoF32(b *testing.B) {
	a := Narrow(benchMat(100, 784, 1))
	c := Narrow(benchMat(256, 784, 2))
	dst := new(Mat32)
	b.SetBytes(int64(4 * 100 * 784 * 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT2Into(dst, a, c)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	x := benchMat(256, 784, 1)
	y := benchMat(256, 784, 2)
	b.SetBytes(int64(8 * len(x.Data)))
	for i := 0; i < b.N; i++ {
		x.AddScaled(1e-9, y)
	}
}

func BenchmarkRNGNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkRNGPerm(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Perm(1000)
	}
}

func BenchmarkSymEigen(b *testing.B) {
	rng := NewRNG(1)
	n := 64
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatSerialize(b *testing.B) {
	ms := []*Mat{benchMat(256, 784, 1)}
	buf := make([]byte, 0, MatsSize(ms))
	b.SetBytes(int64(cap(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMats(buf[:0], ms)
	}
}

func BenchmarkMatDeserializeInto(b *testing.B) {
	ms := []*Mat{benchMat(256, 784, 1)}
	buf := AppendMats(nil, ms)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeMatsInto(ms, buf); err != nil {
			b.Fatal(err)
		}
	}
}
