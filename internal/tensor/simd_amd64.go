package tensor

import "unsafe"

// haveAVX2 selects the assembly leaves of simd_amd64.s under the matmul
// kernels and AdamStep. It is detected once, from CPUID and XGETBV, and
// nothing else sets it: the Go loops in kernels.go are the fallback on a
// host without AVX2 and the oracle the tests hold the assembly to.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (OSXSAVE set, XCR0 bits 1 and 2).
func detectAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
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
func mulAddRow4F64(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func mulAddRow4F32(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func panelDotF64(c, a, panel *float64, aCols, cStride, rows int)

//go:noescape
func panelDotF32(c, a, panel *float32, aCols, cStride, rows int)

//go:noescape
func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64)

func ptr64[F Float](s []F) *float64 { return (*float64)(unsafe.Pointer(unsafe.SliceData(s))) }
func ptr32[F Float](s []F) *float32 { return (*float32)(unsafe.Pointer(unsafe.SliceData(s))) }

// simdRow4 is mulAddRow4 over n = len(c) ≥ 1 elements; b0..b3 hold at
// least n each.
func simdRow4[F Float](c, b0, b1, b2, b3 []F, a0, a1, a2, a3 F) {
	if unsafe.Sizeof(a0) == 8 {
		mulAddRow4F64(ptr64(c), ptr64(b0), ptr64(b1), ptr64(b2), ptr64(b3), len(c),
			float64(a0), float64(a1), float64(a2), float64(a3))
	} else {
		mulAddRow4F32(ptr32(c), ptr32(b0), ptr32(b1), ptr32(b2), ptr32(b3), len(c),
			float32(a0), float32(a1), float32(a2), float32(a3))
	}
}

// simdPanelDot is panelDot for rows ≥ 1 and aCols ≥ 1: c holds rows rows
// of four outputs cStride elements apart, a holds rows·aCols elements and
// panel 4·aCols.
func simdPanelDot[F Float](c, a, panel []F, aCols, cStride, rows int) {
	if unsafe.Sizeof(c[0]) == 8 {
		panelDotF64(ptr64(c), ptr64(a), ptr64(panel), aCols, cStride, rows)
	} else {
		panelDotF32(ptr32(c), ptr32(a), ptr32(panel), aCols, cStride, rows)
	}
}
