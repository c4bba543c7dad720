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
// untiled loops these kernels replaced. Cache blocking and the register
// tiles of the leaf reorder only which (i, j) elements are in flight, never
// the per-element accumulation order.
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
// rows (the k-tile); kernelJC bounds the output columns touched per tile.
// For this repo's layer widths (≤ 784) a row fits one j-tile, so the
// j-loop only pays off on wider shapes; the k-tile is what keeps 256×256
// and up from streaming all of b through cache once per output row.
// blockMR is the row count of the leaf's register tile, whose width is
// blockNR (two vectors); both are the shape simd_amd64.s's BLOCK is
// written for.
const (
	kernelKC = 64
	kernelJC = 1024
	blockMR  = 4
)

// The leaf tiers, each running everything the one below it does.
const tierGeneric, tierAVX2, tierAVX512 = 0, 1, 2

// blockNR returns the column width of the leaf's register tile: two
// vectors of F, 512-bit on tierAVX512 and 256-bit otherwise.
func blockNR[F Float]() int {
	if leafTier == tierAVX512 {
		return 128 / int(unsafe.Sizeof(F(0)))
	}
	return 64 / int(unsafe.Sizeof(F(0)))
}

// block is the leaf under all three matmul families: for r < rows and
// j < cols it sets c[r·cs+j] to c₀ + Σ_{k<kn} a[r·ars+k·aks]·b[k·bs+j], where
// c₀ is the element's current value when load is set and +0 otherwise.
// Every element takes its terms in ascending k, each multiply rounded and
// then its add. From tierAVX2 up the assembly takes the columns in whole
// 256-bit tiles, holding blockMR rows of them in registers across all kn
// terms (on tierAVX512 mostly 512-bit tiles); the Go loop takes the rest,
// and all of it on tierGeneric.
func block[F Float](c []F, cs int, a []F, ars, aks int, b []F, bs, rows, cols, kn int, load bool) {
	if nb := cols - cols%(64/int(unsafe.Sizeof(c[0]))); leafTier >= tierAVX2 && rows > 0 && nb > 0 && kn > 0 {
		_ = c[(rows-1)*cs+nb-1]
		_ = a[(rows-1)*ars+(kn-1)*aks]
		_ = b[(kn-1)*bs+nb-1]
		blockSIMD(c, cs, a, ars, aks, b, bs, rows, nb, kn, load)
		c, b, cols = c[nb:], b[nb:], cols-nb
	}
	for r := 0; r < rows && cols > 0; r++ {
		crow := c[r*cs : r*cs+cols]
		if !load {
			clear(crow)
		}
		for k := 0; k < kn; k++ {
			av, brow := a[r*ars+k*aks], b[k*bs:][:len(crow)]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// matMulKernel computes rows [lo, hi) of c (bCols wide) as c[i][j] (+)=
// Σ_{k<kDim} a[i·ars+k·aks]·b[k][j]: c = a × b with ars = kDim, aks = 1,
// and c = aᵀ × b with ars = 1, aks = a's row length. When zero is set the
// rows start from +0; otherwise they are accumulated into (the fused-add
// path). Loop order: k-tile → j-tile → block, so a kernelKC×kernelJC block
// of b is reused across every output row of the range while each element
// still accumulates in ascending-k order.
func matMulKernel[F Float](c, a, b []F, kDim, ars, aks, bCols int, zero bool, lo, hi int) {
	if zero && kDim == 0 {
		clear(c[lo*bCols : hi*bCols])
	}
	for kb := 0; kb < kDim; kb += kernelKC {
		for jb := 0; jb < bCols; jb += kernelJC {
			block(c[lo*bCols+jb:], bCols, a[lo*ars+kb*aks:], ars, aks, b[kb*bCols+jb:], bCols,
				hi-lo, min(kernelJC, bCols-jb), min(kernelKC, kDim-kb), !zero || kb > 0)
		}
	}
}

// matMulT2Kernel computes column panels [lo, hi) — columns [lo·blockNR,
// hi·blockNR) — of c = a × bᵀ (a is aRows×aCols, b is bRows×aCols), k-tiled
// like matMulKernel. The leaf needs the terms of one k contiguous across
// outputs, so each k-tile of a panel's w ≤ blockNR rows of b is first
// packed into an L1-resident panel, panel[k·w+m] = b[j+m][kb+k], which
// every row of c then reads. Splitting by panels, not rows, gives each
// worker its own share of b to pack; the k-tiles of one panel go in order,
// so the packing reads each of its b rows as one stream.
func matMulT2Kernel[F Float](c, a, b []F, aRows, aCols, bRows int, lo, hi int) {
	var buf [kernelKC * 16]float64 // 8 KB: room for blockNR·kernelKC of F on every tier
	panel := unsafe.Slice((*F)(unsafe.Pointer(&buf)), len(buf)*8/int(unsafe.Sizeof(F(0))))
	if aRows == 0 {
		return // c is empty
	}
	for j := lo * blockNR[F](); j < min(hi*blockNR[F](), bRows); j += blockNR[F]() {
		w := min(blockNR[F](), bRows-j)
		for kb := 0; kb == 0 || kb < aCols; kb += kernelKC { // once at aCols = 0, which clears
			kn := min(kernelKC, aCols-kb)
			p := panel[:w*kn]
			packPanel(p, b[j*aCols+kb:], w, kn, aCols)
			block(c[j:], bRows, a[kb:], aCols, 1, p, w, aRows, w, kn, kb > 0)
		}
	}
}

// packPanel sets p[k·w+m] = b[m·stride+k] for m < w and k < kn. A full
// panel (w = blockNR, a constant per element type) is read four rows at a
// time. It stays out of line: inlined into the kernel's loop nest, its
// loops lose their registers to spills.
//
//go:noinline
func packPanel[F Float](p, b []F, w, kn, stride int) {
	nr := blockNR[F]()
	if w < nr {
		for m := range w {
			for k, bv := range b[m*stride:][:kn] {
				p[k*w+m] = bv
			}
		}
		return
	}
	for m := 0; m < nr; m += 4 {
		b0 := b[m*stride:][:kn]
		b1 := b[(m+1)*stride:][:kn]
		b2 := b[(m+2)*stride:][:kn]
		b3 := b[(m+3)*stride:][:kn]
		for k, bv := range b0 {
			q := p[k*nr+m:][:4]
			q[0], q[1], q[2], q[3] = bv, b1[k], b2[k], b3[k]
		}
	}
}

// AdamStep, the optimizers' leaf, applies one bias-corrected Adam update
// to the parameters w from the gradient g, advancing the moments m and v
// (all as long as g); c1 and c2 are the bias corrections 1−β₁ᵗ and 1−β₂ᵗ.
// From tierAVX2 up the assembly leaf runs the loop on four elements at a time.
func AdamStep(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64) {
	nb1, nb2 := 1-b1, 1-b2
	m, v, w = m[:len(g)], v[:len(g)], w[:len(g)]
	if leafTier >= tierAVX2 && len(g) > 0 {
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
