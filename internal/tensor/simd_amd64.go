package tensor

import "unsafe"

// haveAVX2 selects the assembly leaves of simd_amd64.s under the matmul
// kernels, AdamStep and TanhInto. It is detected once, from CPUID and
// XGETBV, and nothing else sets it: the Go loops in kernels.go and
// tanh.go are the fallback on a host without AVX2 and FMA and the oracle
// the tests hold the assembly to.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and FMA and the OS saves the
// YMM state across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func detectAVX2() bool {
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func blockF64(c *float64, cs int, a *float64, ars, aks int, b *float64, bs, rows, cols, kn int, load bool)

//go:noescape
func blockF32(c *float32, cs int, a *float32, ars, aks int, b *float32, bs, rows, cols, kn int, load bool)

//go:noescape
func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64)

//go:noescape
func tanhF64(dst, src *float64, n int)

//go:noescape
func tanhF32(dst, src *float32, n int)

func ptr64[F Float](s []F) *float64 { return (*float64)(unsafe.Pointer(unsafe.SliceData(s))) }
func ptr32[F Float](s []F) *float32 { return (*float32)(unsafe.Pointer(unsafe.SliceData(s))) }

// blockAVX2 is block's assembly tier for rows ≥ 1, kn ≥ 1 and cols a
// positive multiple of blockNR, every element it reaches in bounds.
func blockAVX2[F Float](c []F, cs int, a []F, ars, aks int, b []F, bs, rows, cols, kn int, load bool) {
	if unsafe.Sizeof(c[0]) == 8 {
		blockF64(ptr64(c), cs, ptr64(a), ars, aks, ptr64(b), bs, rows, cols, kn, load)
	} else {
		blockF32(ptr32(c), cs, ptr32(a), ars, aks, ptr32(b), bs, rows, cols, kn, load)
	}
}

// tanhAVX2 is TanhInto's assembly tier for the first n elements, n a
// positive multiple of 4 and no more than either length.
func tanhAVX2[F Float](dst, src []F, n int) {
	if unsafe.Sizeof(dst[0]) == 8 {
		tanhF64(ptr64(dst), ptr64(src), n)
	} else {
		tanhF32(ptr32(dst), ptr32(src), n)
	}
}
