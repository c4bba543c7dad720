//go:build !amd64

package tensor

// leafTier is tierGeneric off amd64: the generic Go loops in kernels.go
// and tanh.go are the only leaves and the stubs below are never reached.
var leafTier = tierGeneric

func blockSIMD[F Float](c []F, cs int, a []F, ars, aks int, b []F, bs, rows, cols, kn int, load bool) {
	panic("tensor: no SIMD leaves")
}

func adamStepF64(w, m, v, grad *float64, n int, b1, nb1, b2, nb2, c1, c2, lr, eps float64) {
	panic("tensor: no SIMD leaves")
}

func tanhAVX2[F Float](dst, src []F, n int) {
	panic("tensor: no SIMD leaves")
}
