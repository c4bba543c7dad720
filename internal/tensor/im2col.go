package tensor

import (
	"fmt"
	"sync"
)

// im2col / col2im lower 2-D (de)convolutions onto the ParallelFor-backed
// matmul kernels. A batch of flattened c×h×w images (one image per row of
// a Mat, laid out channel-major: (ch·h + y)·w + x) is expanded into "patch
// rows": one row per (sample, patch position), one column per
// (channel, ky, kx) kernel tap. With cols in that layout,
//
//	conv forward      = cols × Wᵀ            (MatMulT2Into)
//	conv ∂W           = dOutᵀ × cols         (AddMatMulT1Into)
//	conv ∂input       = col2im(dOut × W)     (MatMulInto + Col2ImInto)
//	convT forward     = col2im-add(xT × W)   (MatMulInto + AddCol2ImInto)
//
// The patch grid (posH×posW positions, sampled at y = py·stride − pad + ky)
// is the conv *output* grid when lowering a convolution over its input, and
// the conv *input* grid when scattering a transposed convolution into its
// output — the same two kernels serve all four passes by swapping which
// side is "positions" and which is "image".

// convGeom carries the shared gather/scatter geometry.
type convGeom struct {
	c, h, w, k, stride, pad, posH, posW int
}

// im2colCheck validates the shared geometry arguments.
func im2colCheck(op string, imgCols int, g convGeom) {
	if g.c <= 0 || g.h <= 0 || g.w <= 0 || g.k <= 0 || g.stride <= 0 || g.pad < 0 || g.posH <= 0 || g.posW <= 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry c%d h%d w%d k%d s%d p%d pos%d×%d",
			op, g.c, g.h, g.w, g.k, g.stride, g.pad, g.posH, g.posW))
	}
	if imgCols != g.c*g.h*g.w {
		panic(fmt.Sprintf("tensor: %s image width %d, want c·h·w = %d", op, imgCols, g.c*g.h*g.w))
	}
}

// bordered returns the plane of the zero-bordered sample the kernels work
// on: hp×wp per channel, just large enough for every tap of every
// position, with image pixel (y, x) at (y+pad, x+pad). Image rows and
// columns past the plane are never tapped and are left out.
func (g convGeom) bordered() (hp, wp int) {
	return (g.posH-1)*g.stride + g.k, (g.posW-1)*g.stride + g.k
}

// moveImage copies the c×h×w sample img into the image part of the
// c×hp×wp plane p — pixel (y, x) to (y+pad, x+pad), rows and columns past
// the plane left out — or, with back set, that part of p back into img.
// The border is not touched.
func moveImage[F Float](p, img []F, g convGeom, hp, wp int, back bool) {
	x0, x1 := min(g.pad, wp), min(g.pad+g.w, wp)
	for ch := 0; ch < g.c; ch++ {
		for y := 0; y < g.h && y+g.pad < hp; y++ {
			b, i := (ch*hp+y+g.pad)*wp, (ch*g.h+y)*g.w
			if back {
				copy(img[i:], p[b+x0:b+x1])
			} else {
				copy(p[b+x0:b+x1], img[i:])
			}
		}
	}
}

// borderPools recycles the kernels' bordered buffers, one per dispatched
// chunk, indexed by elemIndex like taskPools.
var borderPools [2]sync.Pool

// getBorder returns a pooled buffer of n zeroes; putBorder returns it.
func getBorder[F Float](n int) *[]F {
	bp, _ := borderPools[elemIndex[F]()].Get().(*[]F)
	if bp == nil {
		bp = new([]F)
	}
	if cap(*bp) < n {
		*bp = make([]F, n)
	}
	*bp = (*bp)[:n]
	clear(*bp)
	return bp
}

func putBorder[F Float](bp *[]F) { borderPools[elemIndex[F]()].Put(bp) }

// lowerKernel gathers samples [lo, hi) of img into their patch rows in
// cols or, with scatter set, scatter-adds those rows back into them;
// imgCols and fan are the row widths of img and cols. Each sample is
// copied into a bordered plane first. The scatter adds into the plane in
// (position, column) order — the order of a direct scatter loop, so every
// element sees the same adds — and copies its image part back; the border
// collects the dropped out-of-bounds taps and is never read.
func lowerKernel[F Float](img, cols []F, imgCols, fan int, g convGeom, lo, hi int, scatter bool) {
	hp, wp := g.bordered()
	bp := getBorder[F](g.c * hp * wp)
	p := *bp
	n := g.posH * g.posW * fan
	for bi := lo; bi < hi; bi++ {
		sample, rows := img[bi*imgCols:(bi+1)*imgCols], cols[bi*n:(bi+1)*n]
		moveImage(p, sample, g, hp, wp, false)
		switch {
		case g.k != 4:
			movesK(rows, p, g, hp, wp, scatter)
		case scatter:
			scatter4(p, rows, g, hp, wp)
		default:
			gather4(rows, p, g, hp, wp)
		}
		if scatter {
			moveImage(p, sample, g, hp, wp, true)
		}
	}
	putBorder(bp)
}

// gather4 fills one sample's patch rows from its bordered plane p when
// k = 4: each (ch, ky) tap run is one straight-line four-element move —
// copy or an array assignment would call memmove per run. Kept apart from
// movesK, the loop holds its indices in registers.
func gather4[F Float](rows, p []F, g convGeom, hp, wp int) {
	i := 0
	for py := 0; py < g.posH; py++ {
		for px := 0; px < g.posW; px++ {
			at := py*g.stride*wp + px*g.stride
			for ch := 0; ch < g.c; ch++ {
				b := ch*hp*wp + at
				for ky := 0; ky < 4; ky++ {
					d, s := rows[i:i+4:i+4], p[b:b+4:b+4]
					d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
					i += 4
					b += wp
				}
			}
		}
	}
}

// scatter4 adds one sample's patch rows into its bordered plane p when
// k = 4, position by position: each (ch, ky) tap run is one straight-line
// four-element add.
func scatter4[F Float](p, rows []F, g convGeom, hp, wp int) {
	i := 0
	for py := 0; py < g.posH; py++ {
		for px := 0; px < g.posW; px++ {
			at := py*g.stride*wp + px*g.stride
			for ch := 0; ch < g.c; ch++ {
				b := ch*hp*wp + at
				for ky := 0; ky < 4; ky++ {
					d, s := p[b:b+4:b+4], rows[i:i+4:i+4]
					d[0] += s[0]
					d[1] += s[1]
					d[2] += s[2]
					d[3] += s[3]
					i += 4
					b += wp
				}
			}
		}
	}
}

// movesK is gather4, or with scatter set scatter4, for any k, one element
// at a time.
func movesK[F Float](rows, p []F, g convGeom, hp, wp int, scatter bool) {
	k, i := g.k, 0
	for py := 0; py < g.posH; py++ {
		for px := 0; px < g.posW; px++ {
			at := py*g.stride*wp + px*g.stride
			for ch := 0; ch < g.c; ch++ {
				b := ch*hp*wp + at
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if scatter {
							p[b+kx] += rows[i+kx]
						} else {
							rows[i+kx] = p[b+kx]
						}
					}
					i += k
					b += wp
				}
			}
		}
	}
}

// Im2ColInto expands img (rows = samples, each a flattened c×h×w image)
// into patch rows: dst has shape (img.Rows·posH·posW) × (c·k·k), where row
// b·posH·posW + py·posW + px holds the receptive field sampled at
// y = py·stride − pad + ky, x = px·stride − pad + kx (out-of-bounds taps
// read as 0). dst is resized, must not alias img, and is returned.
func Im2ColInto[T Float](dst, img *Matrix[T], c, h, w, k, stride, pad, posH, posW int) *Matrix[T] {
	g := convGeom{c, h, w, k, stride, pad, posH, posW}
	im2colCheck("Im2ColInto", img.Cols, g)
	pos := posH * posW
	fan := c * k * k
	dst.Resize(img.Rows*pos, fan)
	mustNotShareData("Im2ColInto", dst, img)
	dispatch(kernelTask[T]{op: opIm2Col, c: dst, a: img, g: g}, img.Rows, pos*fan)
	return dst
}

// AddCol2ImInto scatter-adds patch rows back into images: the inverse of
// Im2ColInto with overlapping taps accumulated. cols has shape
// (b·posH·posW) × (c·k·k); dst must already have shape b × (c·h·w) (it is
// accumulated into, not zeroed — the transposed-convolution forward seeds
// it with the broadcast bias). Out-of-bounds taps are dropped. Within one
// sample the adds happen in (position, column) order, matching a direct
// scatter loop; samples are independent, so the batch is parallelised.
// dst must not alias cols. Returns dst.
func AddCol2ImInto[T Float](dst, cols *Matrix[T], c, h, w, k, stride, pad, posH, posW int) *Matrix[T] {
	g := convGeom{c, h, w, k, stride, pad, posH, posW}
	im2colCheck("AddCol2ImInto", dst.Cols, g)
	pos := posH * posW
	fan := c * k * k
	if cols.Cols != fan {
		panic(fmt.Sprintf("tensor: AddCol2ImInto cols width %d, want c·k·k = %d", cols.Cols, fan))
	}
	if cols.Rows != dst.Rows*pos {
		panic(fmt.Sprintf("tensor: AddCol2ImInto cols rows %d, want %d samples × %d positions", cols.Rows, dst.Rows, pos))
	}
	mustNotShareData("AddCol2ImInto", dst, cols)
	dispatch(kernelTask[T]{op: opCol2Im, c: dst, a: cols, g: g}, dst.Rows, pos*fan)
	return dst
}

// Col2ImInto is AddCol2ImInto into a zeroed destination: dst is resized to
// (cols.Rows/(posH·posW)) × (c·h·w), cleared, and accumulated into. This is
// the ∂L/∂input reduction of the convolution backward pass. Returns dst.
func Col2ImInto[T Float](dst, cols *Matrix[T], c, h, w, k, stride, pad, posH, posW int) *Matrix[T] {
	pos := posH * posW
	if pos <= 0 || cols.Rows%pos != 0 {
		panic(fmt.Sprintf("tensor: Col2ImInto cols rows %d not divisible by %d positions", cols.Rows, pos))
	}
	dst.Resize(cols.Rows/pos, c*h*w)
	dst.Zero()
	return AddCol2ImInto(dst, cols, c, h, w, k, stride, pad, posH, posW)
}
