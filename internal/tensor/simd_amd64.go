package tensor

import "unsafe"

// leafTier selects the assembly leaves of simd_amd64.s: the matmul
// kernels' ZMM tile on tierAVX512, their YMM tile, AdamStep's and
// TanhInto's on tierAVX2 and up. It is detected once, from CPUID and
// XGETBV, and nothing else sets it: the Go loops in kernels.go and tanh.go
// are the fallback on a host without AVX2 and FMA and the oracle the tests
// hold the assembly to.
var leafTier = detectTier()

// detectTier returns tierAVX2 when the CPU has AVX2 and FMA and the OS
// saves the YMM state across context switches (OSXSAVE set, XCR0 bits 1
// and 2), and tierAVX512 when it also has AVX512F and the OS saves the
// opmask and ZMM state (XCR0 bits 5 to 7).
func detectTier() int {
	const fma, osxsave, avx, avx2, avx512f = 1 << 12, 1 << 27, 1 << 28, 1 << 5, 1 << 16
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return tierGeneric
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return tierGeneric
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	switch {
	case xcr0&6 != 6 || ebx&avx2 == 0:
		return tierGeneric
	case xcr0&0xE6 != 0xE6 || ebx&avx512f == 0:
		return tierAVX2
	}
	return tierAVX512
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func blockF64(c *float64, cs int, a *float64, ars, aks int, b *float64, bs, rows, cols, kn int, load bool)

//go:noescape
func blockF32(c *float32, cs int, a *float32, ars, aks int, b *float32, bs, rows, cols, kn int, load bool)

//go:noescape
func blockZF64(c *float64, cs int, a *float64, ars, aks int, b *float64, bs, rows, cols, kn int, load bool)

//go:noescape
func blockZF32(c *float32, cs int, a *float32, ars, aks int, b *float32, bs, rows, cols, kn int, load bool)

//go:noescape
func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64)

//go:noescape
func tanhF64(dst, src *float64, n int)

//go:noescape
func tanhF32(dst, src *float32, n int)

func ptr64[F Float](s []F) *float64 { return (*float64)(unsafe.Pointer(unsafe.SliceData(s))) }
func ptr32[F Float](s []F) *float32 { return (*float32)(unsafe.Pointer(unsafe.SliceData(s))) }

// blockSIMD is block's assembly tier for rows ≥ 1, kn ≥ 1 and cols a
// positive multiple of the YMM tile (blockNR on tierAVX2), every element
// it reaches in bounds. On tierAVX512 the ZMM leaf takes the whole
// blockNR-wide tiles and the YMM leaf the half tile left over.
func blockSIMD[F Float](c []F, cs int, a []F, ars, aks int, b []F, bs, rows, cols, kn int, load bool) {
	if nz := cols - cols%blockNR[F](); leafTier == tierAVX512 && nz > 0 {
		if unsafe.Sizeof(c[0]) == 8 {
			blockZF64(ptr64(c), cs, ptr64(a), ars, aks, ptr64(b), bs, rows, nz, kn, load)
		} else {
			blockZF32(ptr32(c), cs, ptr32(a), ars, aks, ptr32(b), bs, rows, nz, kn, load)
		}
		if c, b, cols = c[nz:], b[nz:], cols-nz; cols == 0 {
			return
		}
	}
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
