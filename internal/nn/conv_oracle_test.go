package nn

import (
	"fmt"

	"cellgan/internal/tensor"
)

// The parity oracle of the conv layers: direct nested-loop convolutions
// whose floating-point operation sequence per output element mirrors the
// im2col kernel lowering in conv.go exactly (same accumulation order, no
// zero-operand skips so non-finite values propagate, padded taps
// contributing exact-zero products, bias added last), so the production
// layers must match them bit for bit. Each oracle wraps a production layer
// and shares its parameters and gradient accumulators; it allocates its
// results and ignores the scratch.

// directConv2D is Conv2D computed by direct loops.
type directConv2D struct {
	*Conv2D
	x *tensor.Mat // cached input
}

// directConvT2D is ConvTranspose2D computed by direct loops.
type directConvT2D struct {
	*ConvTranspose2D
	x *tensor.Mat // cached input
}

// directConv returns n with every conv layer replaced by its direct-loop
// oracle (in place; parameters are shared, so call it before training).
func directConv(n *Network) *Network {
	for i, l := range n.Layers {
		switch tl := l.(type) {
		case *Conv2D:
			n.Layers[i] = &directConv2D{Conv2D: tl}
		case *ConvTranspose2D:
			n.Layers[i] = &directConvT2D{ConvTranspose2D: tl}
		}
	}
	return n
}

func (c *directConv2D) Clone() Layer { return &directConv2D{Conv2D: c.Conv2D.Clone().(*Conv2D)} }

func (t *directConvT2D) Clone() Layer {
	return &directConvT2D{ConvTranspose2D: t.ConvTranspose2D.Clone().(*ConvTranspose2D)}
}

func (c *Conv2DOf[T]) inIndex(ch, y, x int) int { return (ch*c.InH+y)*c.InW + x }

// Forward applies the convolution with a direct loop. Each output element
// is the full tap-order dot product (padded taps contribute exact zeros,
// as the im2col rows do) with the bias added last.
func (c *directConv2D) Forward(_ *LayerScratch, x *tensor.Mat) *tensor.Mat {
	if x.Cols != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: Conv2D input width %d, want %d", x.Cols, c.InC*c.InH*c.InW))
	}
	c.x = x
	_, outH, outW := c.OutDims()
	pos := outH * outW
	out := tensor.New(x.Rows, c.OutC*pos)
	tensor.ParallelFor(x.Rows, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			in := x.Row(b)
			dst := out.Row(b)
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					for oc := 0; oc < c.OutC; oc++ {
						w := c.W.Row(oc)
						s := 0.0
						j := 0
						for ic := 0; ic < c.InC; ic++ {
							for ky := 0; ky < c.K; ky++ {
								iy := oy*c.Stride - c.Pad + ky
								for kx := 0; kx < c.K; kx++ {
									ix := ox*c.Stride - c.Pad + kx
									v := 0.0
									if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
										v = in[c.inIndex(ic, iy, ix)]
									}
									s += v * w[j]
									j++
								}
							}
						}
						dst[oc*pos+oy*outW+ox] = s + c.B.Data[oc]
					}
				}
			}
		}
	})
	return out
}

// Backward accumulates parameter gradients and returns ∂L/∂input, as need
// asks, in three passes whose accumulation orders mirror the kernels of
// Conv2D.Backward (AddColSumsInto, AddMatMulT1Into, MatMulInto+Col2ImInto).
func (c *directConv2D) Backward(_ *LayerScratch, grad *tensor.Mat, need Need) *tensor.Mat {
	if need&NeedParams != 0 {
		c.addParamGrads(grad)
	}
	if need&NeedInput == 0 {
		return nil
	}
	_, outH, outW := c.OutDims()
	pos := outH * outW
	// dIn: per-(position, tap) partial sums over output channels in
	// MatMulInto order (zero gradients included, matching the kernel's
	// NaN propagation), scatter-added in Col2ImInto's (position, tap)
	// order with out-of-bounds taps dropped.
	dx := tensor.New(c.x.Rows, c.x.Cols)
	tensor.ParallelFor(c.x.Rows, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			g := grad.Row(b)
			dIn := dx.Row(b)
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					j := 0
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							iy := oy*c.Stride - c.Pad + ky
							for kx := 0; kx < c.K; kx++ {
								ix := ox*c.Stride - c.Pad + kx
								if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
									s := 0.0
									for oc := 0; oc < c.OutC; oc++ {
										s += g[oc*pos+oy*outW+ox] * c.W.Row(oc)[j]
									}
									dIn[c.inIndex(ic, iy, ix)] += s
								}
								j++
							}
						}
					}
				}
			}
		}
	})
	return dx
}

// addParamGrads accumulates dB and dW.
func (c *directConv2D) addParamGrads(grad *tensor.Mat) {
	_, outH, outW := c.OutDims()
	pos := outH * outW
	dW, dB := c.grads()
	// dB: AddColSumsInto order over the position-major gradient — rows are
	// (sample, position), columns the output channels.
	for b := 0; b < grad.Rows; b++ {
		g := grad.Row(b)
		for p := 0; p < pos; p++ {
			for oc := 0; oc < c.OutC; oc++ {
				dB.Data[oc] += g[oc*pos+p]
			}
		}
	}
	// dW: AddMatMulT1Into order — (sample, position) rows outermost,
	// padded taps contributing exact-zero products. Zero gradients are NOT
	// skipped: the kernels propagate 0·NaN = NaN, and the oracle must too.
	for b := 0; b < grad.Rows; b++ {
		in := c.x.Row(b)
		g := grad.Row(b)
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				for oc := 0; oc < c.OutC; oc++ {
					gv := g[oc*pos+oy*outW+ox]
					dw := dW.Row(oc)
					j := 0
					for ic := 0; ic < c.InC; ic++ {
						for ky := 0; ky < c.K; ky++ {
							iy := oy*c.Stride - c.Pad + ky
							for kx := 0; kx < c.K; kx++ {
								ix := ox*c.Stride - c.Pad + kx
								v := 0.0
								if iy >= 0 && iy < c.InH && ix >= 0 && ix < c.InW {
									v = in[c.inIndex(ic, iy, ix)]
								}
								dw[j] += gv * v
								j++
							}
						}
					}
				}
			}
		}
	}
}

// Forward scatters each input activation through the kernel into the
// upsampled, bias-seeded output. Per scatter target the contributions accumulate over input channels
// (zero activations included, matching the matmul kernel's non-finite
// propagation), and targets are visited in (input position, tap) order,
// matching AddCol2ImInto.
func (t *directConvT2D) Forward(_ *LayerScratch, x *tensor.Mat) *tensor.Mat {
	if x.Cols != t.InC*t.InH*t.InW {
		panic(fmt.Sprintf("nn: ConvTranspose2D input width %d, want %d", x.Cols, t.InC*t.InH*t.InW))
	}
	t.x = x
	_, outH, outW := t.OutDims()
	outPos := outH * outW
	inPos := t.InH * t.InW
	out := tensor.New(x.Rows, t.OutC*outPos)
	tensor.ParallelFor(x.Rows, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			in := x.Row(b)
			dst := out.Row(b)
			// Bias first; scatter contributions accumulate on top.
			for oc := 0; oc < t.OutC; oc++ {
				base := oc * outPos
				bias := t.B.Data[oc]
				for i := 0; i < outPos; i++ {
					dst[base+i] = bias
				}
			}
			for iy := 0; iy < t.InH; iy++ {
				for ix := 0; ix < t.InW; ix++ {
					j := 0
					for oc := 0; oc < t.OutC; oc++ {
						for ky := 0; ky < t.K; ky++ {
							oy := iy*t.Stride - t.Pad + ky
							for kx := 0; kx < t.K; kx++ {
								ox := ix*t.Stride - t.Pad + kx
								if oy >= 0 && oy < outH && ox >= 0 && ox < outW {
									s := 0.0
									for ic := 0; ic < t.InC; ic++ {
										s += in[ic*inPos+iy*t.InW+ix] * t.W.Row(ic)[j]
									}
									dst[(oc*outH+oy)*outW+ox] += s
								}
								j++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// Backward accumulates gradients and returns ∂L/∂input, as need asks,
// mirroring the kernel orders of ConvTranspose2D.Backward (addChannelSums,
// AddMatMulT1Into over position-major activations, MatMulT2Into full dots
// in tap order).
func (t *directConvT2D) Backward(_ *LayerScratch, grad *tensor.Mat, need Need) *tensor.Mat {
	if need&NeedParams != 0 {
		t.addParamGrads(grad)
	}
	if need&NeedInput == 0 {
		return nil
	}
	_, outH, outW := t.OutDims()
	inPos := t.InH * t.InW
	// dIn: MatMulT2Into order — one full dot per (input position, input
	// channel) in tap order, no skips, out-of-bounds taps reading zero.
	dx := tensor.New(t.x.Rows, t.x.Cols)
	tensor.ParallelFor(t.x.Rows, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			g := grad.Row(b)
			dIn := dx.Row(b)
			for iy := 0; iy < t.InH; iy++ {
				for ix := 0; ix < t.InW; ix++ {
					for ic := 0; ic < t.InC; ic++ {
						w := t.W.Row(ic)
						s := 0.0
						j := 0
						for oc := 0; oc < t.OutC; oc++ {
							for ky := 0; ky < t.K; ky++ {
								oy := iy*t.Stride - t.Pad + ky
								for kx := 0; kx < t.K; kx++ {
									ox := ix*t.Stride - t.Pad + kx
									gv := 0.0
									if oy >= 0 && oy < outH && ox >= 0 && ox < outW {
										gv = g[(oc*outH+oy)*outW+ox]
									}
									s += gv * w[j]
									j++
								}
							}
						}
						dIn[ic*inPos+iy*t.InW+ix] = s
					}
				}
			}
		}
	})
	return dx
}

// addParamGrads accumulates dB and dW.
func (t *directConvT2D) addParamGrads(grad *tensor.Mat) {
	_, outH, outW := t.OutDims()
	outPos := outH * outW
	inPos := t.InH * t.InW
	dW, dB := t.grads()
	addChannelSums(dB.Data, grad, t.OutC, outPos)
	// dW: AddMatMulT1Into order — (sample, input position) rows outermost,
	// out-of-bounds taps contributing exact-zero gradient operands. Zero
	// activations are NOT skipped: 0·NaN must stay NaN, as in the kernels.
	for b := 0; b < grad.Rows; b++ {
		in := t.x.Row(b)
		g := grad.Row(b)
		for iy := 0; iy < t.InH; iy++ {
			for ix := 0; ix < t.InW; ix++ {
				for ic := 0; ic < t.InC; ic++ {
					v := in[ic*inPos+iy*t.InW+ix]
					dw := dW.Row(ic)
					j := 0
					for oc := 0; oc < t.OutC; oc++ {
						for ky := 0; ky < t.K; ky++ {
							oy := iy*t.Stride - t.Pad + ky
							for kx := 0; kx < t.K; kx++ {
								ox := ix*t.Stride - t.Pad + kx
								gv := 0.0
								if oy >= 0 && oy < outH && ox >= 0 && ox < outW {
									gv = g[(oc*outH+oy)*outW+ox]
								}
								dw[j] += v * gv
								j++
							}
						}
					}
				}
			}
		}
	}
}
