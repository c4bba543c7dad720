package nn

import (
	"fmt"
	"math"

	"cellgan/internal/tensor"
)

// Net32 is a float32-compiled, inference-only snapshot of a Network — the
// compute side of the opt-in serving tier. Compiling narrows the
// parameters once at model load; forward passes then run entirely on the
// float32 instantiation of the tensor kernels, at half the memory traffic
// of the float64 path.
// Bit-parity with training explicitly does not matter here: outputs agree
// with the float64 forward only to float32 precision (the property tests
// bound the error). A Net32 owns its activation buffers and is
// single-goroutine, like a cloned Network; serving workers compile one
// per worker. There is no backward pass and no way to train a Net32.
type Net32 struct {
	layers []layer32
	acts   []*tensor.Mat32
	outW   int
}

// layer32 is one compiled inference stage: forward writes the layer
// output into dst (resized as needed) and returns it.
type layer32 interface {
	forward(dst, x *tensor.Mat32) *tensor.Mat32
}

// CompileNet32 compiles n into a float32 inference network. It returns an
// error naming the first layer whose type has no float32 lowering —
// callers fall back to the float64 path. Supported: Linear, Tanh,
// Sigmoid, ReLU, LeakyReLU, ConvTranspose2D (every generator architecture
// the repo builds).
func CompileNet32(n *Network) (*Net32, error) {
	c := &Net32{outW: n.OutputWidth()}
	for _, l := range n.Layers {
		switch tl := l.(type) {
		case *Linear:
			c.layers = append(c.layers, &linear32{
				w: tensor.Narrow(tl.W),
				b: tensor.Narrow(tl.B),
			})
		case *Tanh:
			c.layers = append(c.layers, tanh32{})
		case *Sigmoid:
			c.layers = append(c.layers, sigmoid32{})
		case *ReLU:
			c.layers = append(c.layers, relu32{})
		case *LeakyReLU:
			c.layers = append(c.layers, leaky32{alpha: float32(tl.Alpha)})
		case *ConvTranspose2D:
			c.layers = append(c.layers, &convT32{
				inC: tl.InC, inH: tl.InH, inW: tl.InW,
				outC: tl.OutC, k: tl.K, stride: tl.Stride, pad: tl.Pad,
				w:  tensor.Narrow(tl.W),
				b:  tensor.Narrow(tl.B),
				xT: new(tensor.Mat32), m: new(tensor.Mat32),
			})
		default:
			return nil, fmt.Errorf("nn: no float32 lowering for layer %T", l)
		}
	}
	for range c.layers {
		c.acts = append(c.acts, new(tensor.Mat32))
	}
	return c, nil
}

// Forward propagates a batch through the compiled network. The returned
// matrix aliases internal buffers and is only valid until the next call.
func (c *Net32) Forward(x *tensor.Mat32) *tensor.Mat32 {
	for i, l := range c.layers {
		x = l.forward(c.acts[i], x)
	}
	return x
}

// OutputWidth returns the per-sample output length of the network.
func (c *Net32) OutputWidth() int { return c.outW }

type linear32 struct{ w, b *tensor.Mat32 }

func (l *linear32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	tensor.MatMulInto(dst, x, l.w)
	dst.AddRowVec(l.b)
	return dst
}

type tanh32 struct{}

func (tanh32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	return tensor.ApplyInto(dst, x, func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	})
}

type sigmoid32 struct{}

func (sigmoid32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	return tensor.ApplyInto(dst, x, func(v float32) float32 {
		return float32(sigmoid(float64(v)))
	})
}

type relu32 struct{}

func (relu32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	return tensor.ApplyInto(dst, x, func(v float32) float32 {
		if v <= 0 { // not !(v > 0): NaN stays NaN, as in ReLU.Forward
			return 0
		}
		return v
	})
}

type leaky32 struct{ alpha float32 }

func (l leaky32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	return tensor.ApplyInto(dst, x, func(v float32) float32 {
		if v >= 0 {
			return v
		}
		return l.alpha * v
	})
}

// convT32 is the float32 lowering of ConvTranspose2D.Forward: gather the
// input position-major, one MatMulInto against the filter bank,
// scatter-add into the bias-seeded output via AddCol2ImInto. The
// scratch matrices are owned by the layer (a Net32 is single-goroutine).
type convT32 struct {
	inC, inH, inW, outC, k, stride, pad int

	w, b  *tensor.Mat32
	xT, m *tensor.Mat32
}

func (t *convT32) forward(dst, x *tensor.Mat32) *tensor.Mat32 {
	if x.Cols != t.inC*t.inH*t.inW {
		panic(fmt.Sprintf("nn: convT32 input width %d, want %d", x.Cols, t.inC*t.inH*t.inW))
	}
	outH := (t.inH-1)*t.stride - 2*t.pad + t.k
	outW := (t.inW-1)*t.stride - 2*t.pad + t.k
	outPos := outH * outW
	inPos := t.inH * t.inW
	t.xT.Resize(x.Rows*inPos, t.inC)
	for b := 0; b < x.Rows; b++ {
		in := x.Row(b)
		for p := 0; p < inPos; p++ {
			xrow := t.xT.Row(b*inPos + p)
			for ic := range xrow {
				xrow[ic] = in[ic*inPos+p]
			}
		}
	}
	m := tensor.MatMulInto(t.m, t.xT, t.w)
	dst.Resize(x.Rows, t.outC*outPos)
	bias := t.b.Data
	for b := 0; b < x.Rows; b++ {
		drow := dst.Row(b)
		for oc := 0; oc < t.outC; oc++ {
			base := oc * outPos
			bv := bias[oc]
			for i := 0; i < outPos; i++ {
				drow[base+i] = bv
			}
		}
	}
	return tensor.AddCol2ImInto(dst, m, t.outC, outH, outW, t.k, t.stride, t.pad, t.inH, t.inW)
}
