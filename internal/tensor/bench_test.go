package tensor

import (
	"fmt"
	"testing"
	"unsafe"
)

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
				_ = MatMulInto(new(Mat), a, c)
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
		_ = MatMulT1Into(new(Mat), a, c)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	a := benchMat(100, 784, 1)
	c := benchMat(256, 784, 2)
	b.SetBytes(int64(8 * 100 * 784 * 256))
	for i := 0; i < b.N; i++ {
		_ = MatMulT2Into(new(Mat), a, c)
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

// BenchmarkKernelShapes times the three kernel families on a layer of m
// rows, k inputs and n outputs — forward x·W, dW += xᵀ·grad, dx = grad·Wᵀ,
// 2·m·k·n flops each — for both element widths, at 256³ and at the shapes
// the benchmark workloads spend their time in: batch 50 through the paper
// MLP's 256×784 layer (mlp-compute), batch 8 through a 128-wide layer
// (exchange-*), the 32-row eval batch of the fitness forwards through both
// MLPs, and the two conv lowerings of the DCGAN discriminator at batch 16
// (dcgan-compute: 16·196 positions × 16 taps → 16 channels, 16·49 × 256
// → 32), on every leaf tier the host has. Run with -cpu 1 it is the
// per-core rate of the leaves.
//
// Each warm row reuses one set of operands, which stay in cache between
// calls. Its cold/ row rotates the family's large operand — W for the
// forward and dx products, dW for the accumulation — through coldBytes of
// matrices, as a cell does when it scores the ten networks of its
// neighbourhood, so every call finds that operand outside L2.
func BenchmarkKernelShapes(b *testing.B) {
	detected := leafTier
	defer func() { leafTier = detected }()
	arena64, arena32 := coldArena[float64](), coldArena[float32]()
	for tier := detected; tier >= tierGeneric; tier-- {
		leafTier = tier
		b.Run(tierNames[tier]+"/f64", func(b *testing.B) { benchKernelShapes(b, arena64) })
		b.Run(tierNames[tier]+"/f32", func(b *testing.B) { benchKernelShapes(b, arena32) })
	}
}

// coldBytes is the size of the set the cold rows rotate through: well
// past the L2 of a core (1–4 MiB on current x86 servers).
const coldBytes = 32 << 20

// coldArena returns coldBytes of F, ordinary finite values, for the cold
// rows of every shape to share.
func coldArena[F Float]() []F {
	rng := NewRNG(7)
	out := make([]F, coldBytes/int(unsafe.Sizeof(F(0))))
	for i := range out {
		out[i] = F(rng.Float64() - 0.5)
	}
	return out
}

func benchKernelShapes[F Float](b *testing.B, arena []F) {
	for _, s := range [][3]int{
		{256, 256, 256}, {50, 256, 784}, {8, 128, 784},
		{32, 784, 256}, {32, 784, 128}, {32, 128, 784},
		{16 * 196, 16, 16}, {16 * 49, 256, 32},
	} {
		m, k, n := s[0], s[1], s[2]
		mat := func(rows, cols int, seed uint64) *Matrix[F] {
			out := new(Matrix[F]).Resize(rows, cols)
			for i, v := range benchMat(rows, cols, seed).Data {
				out.Data[i] = F(v)
			}
			return out
		}
		x, w, grad := mat(m, k, 1), mat(k, n, 2), mat(m, n, 3)
		y, dw, dx := mat(m, n, 4), mat(k, n, 5), mat(m, k, 6)
		// cold is a k×n header over the arena's k·n-element slots.
		cold, slots := &Matrix[F]{Rows: k, Cols: n}, len(arena)/(k*n)
		for _, fam := range []struct {
			name string
			run  func(w, dw *Matrix[F])
		}{
			{"MatMulInto", func(w, _ *Matrix[F]) { MatMulInto(y, x, w) }},
			{"AddMatMulT1Into", func(_, dw *Matrix[F]) { AddMatMulT1Into(dw, x, grad) }},
			{"MatMulT2Into", func(w, _ *Matrix[F]) { MatMulT2Into(dx, grad, w) }},
		} {
			gflops := func(b *testing.B) {
				b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			}
			shape := fmt.Sprintf("%dx%dx%d", m, k, n)
			b.Run(fam.name+"/"+shape, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fam.run(w, dw)
				}
				gflops(b)
			})
			b.Run(fam.name+"/cold/"+shape, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cold.Data = arena[i%slots*k*n:][:k*n]
					fam.run(cold, cold)
				}
				gflops(b)
			})
		}
	}
}

// BenchmarkConvLowering times the gather and the scatter at the two
// discriminator lowerings of dcgan-compute (1×28×28 → 14×14 and
// 16×14×14 → 7×7, k4 s2 p1) at batch 32; ns/elem is per element of the
// patch matrix, which each kernel writes or reads once.
func BenchmarkConvLowering(b *testing.B) {
	for _, s := range []struct{ c, hw, pos int }{{1, 28, 14}, {16, 14, 7}} {
		const batch, k, stride, pad = 32, 4, 2, 1
		img := benchMat(batch, s.c*s.hw*s.hw, 1)
		cols := Im2ColInto(new(Mat), img, s.c, s.hw, s.hw, k, stride, pad, s.pos, s.pos)
		elems := float64(len(cols.Data))
		name := fmt.Sprintf("%dx%dx%d", s.c, s.hw, s.hw)
		b.Run("im2col/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Im2ColInto(cols, img, s.c, s.hw, s.hw, k, stride, pad, s.pos, s.pos)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
		b.Run("col2im/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddCol2ImInto(img, cols, s.c, s.hw, s.hw, k, stride, pad, s.pos, s.pos)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
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

// BenchmarkTanhInto times the tanh layer's element function on a
// 64×256 activation of N(0, 4) values, per leaf tier the host has and
// width (avx512 runs the AVX2 leaf); ns/op over 16384 is the time per
// element.
func BenchmarkTanhInto(b *testing.B) {
	x := benchMat(64, 256, 3)
	x.Scale(2)
	x32 := Narrow(x)
	detected := leafTier
	defer func() { leafTier = detected }()
	for tier := detected; tier >= tierGeneric; tier-- {
		leafTier = tier
		b.Run(tierNames[tier]+"/float64", func(b *testing.B) {
			dst := make([]float64, len(x.Data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TanhInto(dst, x.Data)
			}
		})
		b.Run(tierNames[tier]+"/float32", func(b *testing.B) {
			dst := make([]float32, len(x32.Data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TanhInto(dst, x32.Data)
			}
		})
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
