//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the generic Go loops in kernels.go are the
// only leaves and the stubs below are never reached.
var haveAVX2 = false

func simdRow4[F Float](c, b0, b1, b2, b3 []F, a0, a1, a2, a3 F) { panic("tensor: no SIMD leaves") }

func simdPanelDot[F Float](c, a, panel []F, aCols, cStride, rows int) {
	panic("tensor: no SIMD leaves")
}

func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64) {
	panic("tensor: no SIMD leaves")
}
