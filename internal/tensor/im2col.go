package tensor

import "fmt"

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

// im2colKernel gathers samples [lo, hi) of img into patch rows of dst.
func im2colKernel[T Float](dst, img *Matrix[T], g convGeom, lo, hi int) {
	pos := g.posH * g.posW
	for bi := lo; bi < hi; bi++ {
		src := img.Row(bi)
		for py := 0; py < g.posH; py++ {
			for px := 0; px < g.posW; px++ {
				row := dst.Row(bi*pos + py*g.posW + px)
				i := 0
				for ch := 0; ch < g.c; ch++ {
					chBase := ch * g.h * g.w
					for ky := 0; ky < g.k; ky++ {
						y := py*g.stride - g.pad + ky
						if y < 0 || y >= g.h {
							for kx := 0; kx < g.k; kx++ {
								row[i] = 0
								i++
							}
							continue
						}
						rowBase := chBase + y*g.w
						for kx := 0; kx < g.k; kx++ {
							x := px*g.stride - g.pad + kx
							if x < 0 || x >= g.w {
								row[i] = 0
							} else {
								row[i] = src[rowBase+x]
							}
							i++
						}
					}
				}
			}
		}
	}
}

// col2imKernel scatter-adds patch rows of cols back into samples [lo, hi)
// of dst, in (position, column) order per sample, dropping out-of-bounds
// taps; imgCols and fan are the row widths of dst and cols respectively.
func col2imKernel[F Float](dst, cols []F, imgCols, fan int, g convGeom, lo, hi int) {
	pos := g.posH * g.posW
	for bi := lo; bi < hi; bi++ {
		out := dst[bi*imgCols : (bi+1)*imgCols]
		for py := 0; py < g.posH; py++ {
			for px := 0; px < g.posW; px++ {
				r := bi*pos + py*g.posW + px
				row := cols[r*fan : (r+1)*fan]
				i := 0
				for ch := 0; ch < g.c; ch++ {
					chBase := ch * g.h * g.w
					for ky := 0; ky < g.k; ky++ {
						y := py*g.stride - g.pad + ky
						if y < 0 || y >= g.h {
							i += g.k
							continue
						}
						rowBase := chBase + y*g.w
						for kx := 0; kx < g.k; kx++ {
							x := px*g.stride - g.pad + kx
							if x >= 0 && x < g.w {
								out[rowBase+x] += row[i]
							}
							i++
						}
					}
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
