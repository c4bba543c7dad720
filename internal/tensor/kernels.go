package tensor

import (
	"math"
	"unsafe"
)

// This file holds the cache-blocked, register-unrolled kernel cores behind
// the matmul family (matmul.go). The cores are generic over the element
// type: Go instantiates one copy per element width, so the float64 path
// compiles to exactly the code it had when it was hand-written, and the
// float32 serving tier reuses the same loop structure at half the memory
// traffic.
//
// Determinism contract: for every output element the multiply-adds are
// applied in ascending-k order with a single accumulator, exactly like the
// untiled loops these kernels replaced. Cache blocking reorders only which
// (i, j) elements are in flight, never the per-element accumulation order,
// and the 4-wide unrolls issue their four multiply-adds sequentially.
// Together with the deterministic chunk decomposition of parallelRun this
// keeps the float64 path bit-exact across tile-size changes, worker counts
// and the allocating/destination-passing forms.
//
// Zero-operand terms are NOT skipped: 0·NaN and 0·±Inf are NaN and must
// propagate so divergence shows up in losses instead of being silently
// swallowed (see the non-finite regression tests). Skipping was also
// value-identical for finite data only by accident of IEEE signed-zero
// rules; the tiled kernels drop it everywhere.

// Tile sizes. kernelKC rows of b are kept hot across a sweep of output
// rows (the k-tile); kernelJC bounds the output columns touched per tile
// so one c-row segment plus four b-row segments stay L1-resident even for
// very wide operands (5 × 8 KB at float64). For this repo's layer widths
// (≤ 784) a row fits one j-tile, so the j-loop only pays off on wider
// shapes; the k-tile is what keeps 256×256 and up from streaming all of b
// through cache once per output row.
const (
	kernelKC = 64
	kernelJC = 1024
)

// mulAddRow4 computes crow[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
// with the four multiply-adds applied sequentially (ascending k), loading
// and storing each c element once per quad — the register micro-kernel of
// the ikj family. With simd set (the caller's copy of haveAVX2) the
// assembly leaf runs the same sequence on a vector of j at a time.
func mulAddRow4[F Float](simd bool, crow, b0, b1, b2, b3 []F, a0, a1, a2, a3 F) {
	b0 = b0[:len(crow)]
	b1 = b1[:len(crow)]
	b2 = b2[:len(crow)]
	b3 = b3[:len(crow)]
	if simd && len(crow) > 0 {
		simdRow4(crow, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	for j, cv := range crow {
		cv += a0 * b0[j]
		cv += a1 * b1[j]
		cv += a2 * b2[j]
		cv += a3 * b3[j]
		crow[j] = cv
	}
}

// mulAddRow1 is the k-remainder form: crow[j] += av·brow[j].
func mulAddRow1[F Float](crow, brow []F, av F) {
	brow = brow[:len(crow)]
	for j, cv := range crow {
		crow[j] = cv + av*brow[j]
	}
}

// matMulKernel computes rows [lo, hi) of c = a × b (a is rows×aCols, b is
// aCols×bCols). When zero is set the destination rows are cleared first;
// otherwise they are accumulated into (the fused-add path). Loop order: k-tile → j-tile → output row → 4-wide k → j, so a
// kernelKC×kernelJC block of b is reused across every output row of the
// range while each element still accumulates in ascending-k order.
func matMulKernel[F Float](c, a, b []F, aCols, bCols int, zero bool, lo, hi int) {
	simd := haveAVX2
	if zero {
		for i := lo; i < hi; i++ {
			crow := c[i*bCols : (i+1)*bCols]
			for j := range crow {
				crow[j] = 0
			}
		}
	}
	if bCols == 0 {
		return
	}
	for kb := 0; kb < aCols; kb += kernelKC {
		kEnd := kb + kernelKC
		if kEnd > aCols {
			kEnd = aCols
		}
		for jb := 0; jb < bCols; jb += kernelJC {
			jEnd := jb + kernelJC
			if jEnd > bCols {
				jEnd = bCols
			}
			for i := lo; i < hi; i++ {
				arow := a[i*aCols : (i+1)*aCols]
				crow := c[i*bCols+jb : i*bCols+jEnd]
				k := kb
				for ; k+4 <= kEnd; k += 4 {
					mulAddRow4(simd, crow,
						b[k*bCols+jb:k*bCols+jEnd],
						b[(k+1)*bCols+jb:(k+1)*bCols+jEnd],
						b[(k+2)*bCols+jb:(k+2)*bCols+jEnd],
						b[(k+3)*bCols+jb:(k+3)*bCols+jEnd],
						arow[k], arow[k+1], arow[k+2], arow[k+3])
				}
				for ; k < kEnd; k++ {
					mulAddRow1(crow, b[k*bCols+jb:k*bCols+jEnd], arow[k])
				}
			}
		}
	}
}

// matMulT1Kernel computes rows [lo, hi) of c = aᵀ × b (a is aRows×aCols, b
// is aRows×bCols, c is aCols×bCols): c[i][j] = Σ_k a[k][i]·b[k][j]. Same
// tiling as matMulKernel; the a operand is read down a column (stride
// aCols), four taps per quad, amortised over a full b-row segment.
func matMulT1Kernel[F Float](c, a, b []F, aRows, aCols, bCols int, zero bool, lo, hi int) {
	simd := haveAVX2
	if zero {
		for i := lo; i < hi; i++ {
			crow := c[i*bCols : (i+1)*bCols]
			for j := range crow {
				crow[j] = 0
			}
		}
	}
	if bCols == 0 {
		return
	}
	for kb := 0; kb < aRows; kb += kernelKC {
		kEnd := kb + kernelKC
		if kEnd > aRows {
			kEnd = aRows
		}
		for jb := 0; jb < bCols; jb += kernelJC {
			jEnd := jb + kernelJC
			if jEnd > bCols {
				jEnd = bCols
			}
			for i := lo; i < hi; i++ {
				crow := c[i*bCols+jb : i*bCols+jEnd]
				k := kb
				for ; k+4 <= kEnd; k += 4 {
					mulAddRow4(simd, crow,
						b[k*bCols+jb:k*bCols+jEnd],
						b[(k+1)*bCols+jb:(k+1)*bCols+jEnd],
						b[(k+2)*bCols+jb:(k+2)*bCols+jEnd],
						b[(k+3)*bCols+jb:(k+3)*bCols+jEnd],
						a[k*aCols+i], a[(k+1)*aCols+i], a[(k+2)*aCols+i], a[(k+3)*aCols+i])
				}
				for ; k < kEnd; k++ {
					mulAddRow1(crow, b[k*bCols+jb:k*bCols+jEnd], a[k*aCols+i])
				}
			}
		}
	}
}

// panelDot writes c[i][j..j+3] = Σ_k a[i][k]·p[4k..4k+3] for rows [lo, hi):
// four ascending-k dot products per a-row, one accumulator each, against
// the packed panel p of matMulT2Kernel (length 4·aCols). With simd set the
// assembly leaf holds the four accumulators in one vector and runs four
// a-rows at a time.
func panelDot[F Float](simd bool, c, a, p []F, aCols, bRows, j, lo, hi int) {
	if simd && lo < hi && aCols > 0 {
		simdPanelDot(c[lo*bRows+j:(hi-1)*bRows+j+4], a[lo*aCols:hi*aCols], p[:4*aCols], aCols, bRows, hi-lo)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*aCols : (i+1)*aCols]
		var s0, s1, s2, s3 F
		for k, av := range arow {
			q := p[4*k : 4*k+4 : 4*k+4]
			s0 += av * q[0]
			s1 += av * q[1]
			s2 += av * q[2]
			s3 += av * q[3]
		}
		crow := c[i*bRows+j : i*bRows+j+4 : i*bRows+j+4]
		crow[0] = s0
		crow[1] = s1
		crow[2] = s2
		crow[3] = s3
	}
}

// matMulT2Kernel computes rows [lo, hi) of c = a × bᵀ (a is rows×aCols, b
// is bRows×aCols): every element is a full ascending-k dot product written
// once. Rows of b are consumed four at a time through a packed panel:
// panel[4k+m] = b[j+m][k], so panelDot feeds four independent
// accumulators from one contiguous stream and reads each a-row once per
// quad. The packing cost is amortised over the whole [lo, hi) row range.
// panel must have length ≥ 4·aCols.
func matMulT2Kernel[F Float](c, a, b []F, aCols, bRows int, lo, hi int, panel []F) {
	simd := haveAVX2
	j := 0
	for ; j+4 <= bRows; j += 4 {
		b0 := b[j*aCols : (j+1)*aCols]
		b1 := b[(j+1)*aCols : (j+2)*aCols]
		b2 := b[(j+2)*aCols : (j+3)*aCols]
		b3 := b[(j+3)*aCols : (j+4)*aCols]
		p := panel[: 4*aCols : 4*aCols]
		for k, bv := range b0 {
			p[4*k] = bv
			p[4*k+1] = b1[k]
			p[4*k+2] = b2[k]
			p[4*k+3] = b3[k]
		}
		panelDot(simd, c, a, p, aCols, bRows, j, lo, hi)
	}
	for ; j < bRows; j++ {
		brow := b[j*aCols : (j+1)*aCols]
		for i := lo; i < hi; i++ {
			arow := a[i*aCols : (i+1)*aCols]
			var s F
			for k, av := range arow {
				s += av * brow[k]
			}
			c[i*bRows+j] = s
		}
	}
}

// AdamStep, the optimizers' leaf, applies one bias-corrected Adam update
// to the parameters w from the gradient g, advancing the moments m and v
// (all as long as g); c1 and c2 are the bias corrections 1−β₁ᵗ and 1−β₂ᵗ.
// With haveAVX2 the assembly leaf runs the loop on four elements at a time.
func AdamStep(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	nb1, nb2 := 1-b1, 1-b2
	m, v, w = m[:len(g)], v[:len(g)], w[:len(g)]
	if haveAVX2 && len(g) > 0 {
		adamStepF64(&w[0], &m[0], &v[0], &g[0], len(g), b1, nb1, b2, nb2, c1, c2, lr, eps)
		return
	}
	for j, gj := range g {
		mj := b1*m[j] + nb1*gj
		vj := b2*v[j] + nb2*gj*gj
		m[j], v[j] = mj, vj
		mhat := mj / c1
		vhat := vj / c2
		w[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// sliceRange returns the backing address range [lo, hi) of d, or (0, 0)
// for an empty slice.
func sliceRange[F Float](d []F) (uintptr, uintptr) {
	if len(d) == 0 {
		return 0, 0
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(d)))
	return lo, lo + uintptr(len(d))*unsafe.Sizeof(d[0])
}

// slicesOverlap reports whether two slices share any backing element —
// including partially overlapping FromSlice views of one array, which the
// old first-element identity check missed.
func slicesOverlap[F Float](a, b []F) bool {
	aLo, aHi := sliceRange(a)
	bLo, bHi := sliceRange(b)
	return aLo < bHi && bLo < aHi
}
