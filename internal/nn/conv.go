package nn

import (
	"fmt"

	"cellgan/internal/tensor"
)

// The conv layers lower onto the ParallelFor-backed matmul kernels via
// tensor.Im2ColInto/Col2ImInto, with the patch matrices living in the
// LayerScratch — zero steady-state allocations on a reused Workspace. The
// direct nested-loop convolutions these lowerings are bit-identical to
// (same accumulation order, no zero-operand skips so non-finite values
// propagate, padded taps contributing exact-zero products, bias added
// last) live in conv_oracle_test.go as the parity oracle.
//
// Patch-row layout shared by both layers: cols has one row per
// (sample, patch position) and one column per (channel, ky, kx) tap, so
//
//	conv  forward: out = cols × Wᵀ        convT forward: out = col2im(xT × W)
//	conv  ∂W = dOutᵀ × cols               convT ∂W = xTᵀ × gCols
//	conv  ∂in = col2im(dOut × W)          convT ∂in = gCols × Wᵀ
//
// where dOut/xT are position-major views ((sample·pos) × channels) of the
// channel-major activations, and gCols = im2col(grad) over the output grid.

// geometry is the shape of a conv layer: the input C×H×W, the output
// channel count, the square kernel side, the stride and the padding.
type geometry struct {
	InC, InH, InW int
	OutC          int
	K             int // square kernel side
	Stride        int
	Pad           int
}

// Conv2DOf is a 2-D convolution over batches of flattened C×H×W images
// (row-major per sample: channel, then row, then column). It exists for
// the paper's future-work direction — "generation of higher dimensional
// images, such as samples from CIFAR and CelebA" — which needs DCGAN-style
// convolutional generators and discriminators.
type Conv2DOf[T tensor.Float] struct {
	geometry
	weights[T] // W has shape (OutC) × (InC·K·K); B is 1×OutC.
}

// NewConv2D constructs a convolution layer with He-normal weights.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, rng *tensor.RNG) (*Conv2D, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: invalid conv geometry C%d H%d W%d -> C%d k%d s%d p%d",
			inC, inH, inW, outC, k, stride, pad)
	}
	if (inH+2*pad-k) < 0 || (inW+2*pad-k) < 0 {
		return nil, fmt.Errorf("nn: kernel %d larger than padded input %d×%d", k, inH+2*pad, inW+2*pad)
	}
	if (inH+2*pad-k)%stride != 0 || (inW+2*pad-k)%stride != 0 {
		return nil, fmt.Errorf("nn: conv geometry does not tile: (dim+2·%d−%d) %% %d ≠ 0", pad, k, stride)
	}
	fanIn := inC * k * k
	c := &Conv2D{
		geometry: geometry{InC: inC, InH: inH, InW: inW, OutC: outC, K: k, Stride: stride, Pad: pad},
		weights:  newWeights(tensor.New(outC, fanIn), tensor.New(1, outC)),
	}
	tensor.HeNormal(c.W, fanIn, rng)
	return c, nil
}

// OutDims returns the output (channels, height, width).
func (c *Conv2DOf[T]) OutDims() (outC, outH, outW int) {
	return c.OutC, (c.InH+2*c.Pad-c.K)/c.Stride + 1, (c.InW+2*c.Pad-c.K)/c.Stride + 1
}

// OutputWidth implements Sized.
func (c *Conv2DOf[T]) OutputWidth() int {
	oc, oh, ow := c.OutDims()
	return oc * oh * ow
}

// LayerScratch.aux slots used by the conv layers.
const (
	auxCols = iota // conv: im2col patches · convT: position-major input
	auxPos         // conv: position-major out/grad · convT: xT×W / gCols
	auxTmp         // conv: dOut×W patches · convT: gCols×Wᵀ
)

// Forward applies the convolution to a batch (rows = samples, each of
// length InC·InH·InW): gather patches, one MatMulT2Into against the filter
// bank, then a position→channel-major shuffle with the bias added last.
// The patch matrix stays cached in s for Backward.
func (c *Conv2DOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	if x.Cols != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: Conv2D input width %d, want %d", x.Cols, c.InC*c.InH*c.InW))
	}
	s.in = x
	_, outH, outW := c.OutDims()
	pos := outH * outW
	cols := tensor.Im2ColInto(&s.aux[auxCols], x, c.InC, c.InH, c.InW, c.K, c.Stride, c.Pad, outH, outW)
	out2 := tensor.MatMulT2Into(&s.aux[auxPos], cols, c.W)
	dst := s.out.Resize(x.Rows, c.OutC*pos)
	bias := c.B.Data
	// Position→channel-major shuffle with the bias added last; a serial
	// reindexing pass (memory-bound, and closure-free keeps the pass
	// allocation-free).
	for b := 0; b < x.Rows; b++ {
		drow := dst.Row(b)
		for p := 0; p < pos; p++ {
			srow := out2.Row(b*pos + p)
			for oc, v := range srow {
				drow[oc*pos+p] = v + bias[oc]
			}
		}
	}
	return dst
}

// Backward accumulates parameter gradients and returns ∂L/∂input, each as
// need asks: shuffle the gradient position-major, fused dB/dW kernels
// against the cached patch matrix, then ∂in = col2im(dOut × W).
func (c *Conv2DOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], need Need) *tensor.Matrix[T] {
	s.forwarded()
	_, outH, outW := c.OutDims()
	pos := outH * outW
	cols := &s.aux[auxCols]
	if cols.Rows != grad.Rows*pos {
		panic("nn: Conv2D.Backward gradient does not match the Forward batch")
	}
	dOut := s.aux[auxPos].Resize(grad.Rows*pos, c.OutC)
	for b := 0; b < grad.Rows; b++ {
		g := grad.Row(b)
		for p := 0; p < pos; p++ {
			drow := dOut.Row(b*pos + p)
			for oc := range drow {
				drow[oc] = g[oc*pos+p]
			}
		}
	}
	if need&NeedParams != 0 {
		dW, dB := c.grads()
		tensor.AddColSumsInto(dB, dOut)
		tensor.AddMatMulT1Into(dW, dOut, cols)
	}
	if need&NeedInput == 0 {
		return nil
	}
	dcols := tensor.MatMulInto(&s.aux[auxTmp], dOut, c.W)
	return tensor.Col2ImInto(&s.dIn, dcols, c.InC, c.InH, c.InW, c.K, c.Stride, c.Pad, outH, outW)
}

// Clone returns an independent copy.
func (c *Conv2DOf[T]) Clone() LayerOf[T] {
	return &Conv2DOf[T]{geometry: c.geometry, weights: c.clone()}
}

// Narrow returns an independent float32 copy.
func (c *Conv2DOf[T]) Narrow() LayerOf[float32] {
	return &Conv2DOf[float32]{geometry: c.geometry, weights: c.narrow()}
}

// ConvTranspose2DOf is the transposed (fractionally-strided) convolution
// DCGAN generators upsample with. Output side = (in−1)·stride − 2·pad + k.
type ConvTranspose2DOf[T tensor.Float] struct {
	geometry
	// W has shape (InC) × (OutC·K·K): the transpose of Conv2D's layout,
	// matching the "gradient of convolution" view. B is 1×OutC.
	weights[T]
}

// NewConvTranspose2D constructs a transposed convolution layer.
func NewConvTranspose2D(inC, inH, inW, outC, k, stride, pad int, rng *tensor.RNG) (*ConvTranspose2D, error) {
	if inC <= 0 || inH <= 0 || inW <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("nn: invalid convT geometry C%d H%d W%d -> C%d k%d s%d p%d",
			inC, inH, inW, outC, k, stride, pad)
	}
	outH := (inH-1)*stride - 2*pad + k
	outW := (inW-1)*stride - 2*pad + k
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("nn: convT output %d×%d not positive", outH, outW)
	}
	t := &ConvTranspose2D{
		geometry: geometry{InC: inC, InH: inH, InW: inW, OutC: outC, K: k, Stride: stride, Pad: pad},
		weights:  newWeights(tensor.New(inC, outC*k*k), tensor.New(1, outC)),
	}
	tensor.HeNormal(t.W, inC*k*k, rng)
	return t, nil
}

// OutDims returns the output (channels, height, width).
func (t *ConvTranspose2DOf[T]) OutDims() (outC, outH, outW int) {
	return t.OutC, (t.InH-1)*t.Stride - 2*t.Pad + t.K, (t.InW-1)*t.Stride - 2*t.Pad + t.K
}

// OutputWidth implements Sized.
func (t *ConvTranspose2DOf[T]) OutputWidth() int {
	oc, oh, ow := t.OutDims()
	return oc * oh * ow
}

// addChannelSums accumulates per-channel sums of a channel-major activation
// batch (pos positions per channel) into dB.
func addChannelSums[T tensor.Float](dB []T, grad *tensor.Matrix[T], channels, pos int) {
	for b := 0; b < grad.Rows; b++ {
		g := grad.Row(b)
		for ch := 0; ch < channels; ch++ {
			base := ch * pos
			var s T
			for i := 0; i < pos; i++ {
				s += g[base+i]
			}
			dB[ch] += s
		}
	}
}

// Forward lowers the transposed convolution onto the matmul kernels:
// gather the input position-major (xT, cached in s for the backward
// pass), one MatMulInto against the filter bank, then scatter-add into the
// bias-seeded output via AddCol2ImInto (the patch grid is the *input* grid
// here).
func (t *ConvTranspose2DOf[T]) Forward(s *LayerScratchOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	if x.Cols != t.InC*t.InH*t.InW {
		panic(fmt.Sprintf("nn: ConvTranspose2D input width %d, want %d", x.Cols, t.InC*t.InH*t.InW))
	}
	s.in = x
	_, outH, outW := t.OutDims()
	outPos := outH * outW
	inPos := t.InH * t.InW
	xT := s.aux[auxCols].Resize(x.Rows*inPos, t.InC)
	for b := 0; b < x.Rows; b++ {
		in := x.Row(b)
		for p := 0; p < inPos; p++ {
			xrow := xT.Row(b*inPos + p)
			for ic := range xrow {
				xrow[ic] = in[ic*inPos+p]
			}
		}
	}
	m := tensor.MatMulInto(&s.aux[auxPos], xT, t.W)
	dst := s.out.Resize(x.Rows, t.OutC*outPos)
	bias := t.B.Data
	for b := 0; b < x.Rows; b++ {
		drow := dst.Row(b)
		for oc := 0; oc < t.OutC; oc++ {
			base := oc * outPos
			bv := bias[oc]
			for i := 0; i < outPos; i++ {
				drow[base+i] = bv
			}
		}
	}
	return tensor.AddCol2ImInto(dst, m, t.OutC, outH, outW, t.K, t.Stride, t.Pad, t.InH, t.InW)
}

// Backward gathers the output gradient into patch rows over the input
// grid (gCols = im2col(grad)), then dB/dW and ∂in, each as need asks, ride
// the fused kernels against the cached position-major input.
func (t *ConvTranspose2DOf[T]) Backward(s *LayerScratchOf[T], grad *tensor.Matrix[T], need Need) *tensor.Matrix[T] {
	s.forwarded()
	_, outH, outW := t.OutDims()
	outPos := outH * outW
	inPos := t.InH * t.InW
	xT := &s.aux[auxCols]
	if xT.Rows != grad.Rows*inPos {
		panic("nn: ConvTranspose2D.Backward gradient does not match the Forward batch")
	}
	gCols := tensor.Im2ColInto(&s.aux[auxPos], grad, t.OutC, outH, outW, t.K, t.Stride, t.Pad, t.InH, t.InW)
	if need&NeedParams != 0 {
		dW, dB := t.grads()
		addChannelSums(dB.Data, grad, t.OutC, outPos)
		tensor.AddMatMulT1Into(dW, xT, gCols)
	}
	if need&NeedInput == 0 {
		return nil
	}
	dxT := tensor.MatMulT2Into(&s.aux[auxTmp], gCols, t.W)
	dst := s.dIn.Resize(grad.Rows, t.InC*inPos)
	for b := 0; b < grad.Rows; b++ {
		dIn := dst.Row(b)
		for p := 0; p < inPos; p++ {
			drow := dxT.Row(b*inPos + p)
			for ic, v := range drow {
				dIn[ic*inPos+p] = v
			}
		}
	}
	return dst
}

// Clone returns an independent copy.
func (t *ConvTranspose2DOf[T]) Clone() LayerOf[T] {
	return &ConvTranspose2DOf[T]{geometry: t.geometry, weights: t.clone()}
}

// Narrow returns an independent float32 copy.
func (t *ConvTranspose2DOf[T]) Narrow() LayerOf[float32] {
	return &ConvTranspose2DOf[float32]{geometry: t.geometry, weights: t.narrow()}
}
