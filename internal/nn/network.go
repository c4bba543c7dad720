package nn

import (
	"fmt"

	"cellgan/internal/tensor"
)

// NetworkOf is an ordered sequence of layers trained end-to-end. The
// layer sequence must not be mutated after the first Params/Grads call:
// those accessors cache their slices, which optimizers rely on being
// allocation-free in the steady state.
type NetworkOf[T tensor.Float] struct {
	Layers []LayerOf[T]

	params []*tensor.Matrix[T]
	grads  []*tensor.Matrix[T]
}

// NewNetwork returns a network over the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Params returns all trainable parameters, layer by layer. The slice is
// computed once and cached (layers hand out stable *Mat pointers), so
// per-step optimizer calls do not allocate.
func (n *NetworkOf[T]) Params() []*tensor.Matrix[T] {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// Grads returns all gradient accumulators, aligned with Params. Cached
// like Params.
func (n *NetworkOf[T]) Grads() []*tensor.Matrix[T] {
	if n.grads == nil {
		for _, l := range n.Layers {
			n.grads = append(n.grads, l.Grads()...)
		}
	}
	return n.grads
}

// ZeroGrads clears every gradient accumulator.
func (n *NetworkOf[T]) ZeroGrads() {
	for _, l := range n.Layers {
		l.ZeroGrads()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *NetworkOf[T]) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// OutputWidth returns the per-sample output length of the network: the
// output width of the last Sized layer (activations are shape-preserving).
// It returns 0 when no layer knows its width.
func (n *NetworkOf[T]) OutputWidth() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if sized, ok := n.Layers[i].(Sized); ok {
			return sized.OutputWidth()
		}
	}
	return 0
}

// Clone returns a deep copy of the network.
func (n *NetworkOf[T]) Clone() *NetworkOf[T] { return copyLayers(n, LayerOf[T].Clone) }

// Shell returns a network of n's architecture that holds no parameter
// storage: every parameter matrix has its shape and no Data until
// ViewParams points it into a blob.
func (n *NetworkOf[T]) Shell() *NetworkOf[T] {
	return copyLayers(n, func(l LayerOf[T]) LayerOf[T] {
		switch l := l.(type) {
		case *LinearOf[T]:
			return &LinearOf[T]{weights: l.shapes()}
		case *Conv2DOf[T]:
			return &Conv2DOf[T]{geometry: l.geometry, weights: l.shapes()}
		case *ConvTranspose2DOf[T]:
			return &ConvTranspose2DOf[T]{geometry: l.geometry, weights: l.shapes()}
		}
		return l.Clone() // activations hold no parameters
	})
}

// Narrow returns a float32 copy of the network, every parameter rounded
// once — what the serving tier runs forward.
func (n *NetworkOf[T]) Narrow() *Net32 { return copyLayers(n, LayerOf[T].Narrow) }

// copyLayers returns a network of n's layers each copied by cp.
func copyLayers[U, T tensor.Float](n *NetworkOf[T], cp func(LayerOf[T]) LayerOf[U]) *NetworkOf[U] {
	c := &NetworkOf[U]{Layers: make([]LayerOf[U], len(n.Layers))}
	for i, l := range n.Layers {
		c.Layers[i] = cp(l)
	}
	return c
}

// CopyParamsFrom copies parameter values from src into n. The two networks
// must have identical architectures.
func (n *NetworkOf[T]) CopyParamsFrom(src *NetworkOf[T]) error {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(from))
	}
	for i := range dst {
		if dst[i].Rows != from[i].Rows || dst[i].Cols != from[i].Cols {
			return fmt.Errorf("nn: parameter %d shape mismatch %d×%d vs %d×%d",
				i, dst[i].Rows, dst[i].Cols, from[i].Rows, from[i].Cols)
		}
		dst[i].CopyFrom(from[i])
	}
	return nil
}

// EncodeParams serialises the network parameters (not the architecture) to
// a byte slice suitable for message passing between processes.
func (n *NetworkOf[T]) EncodeParams() ([]byte, error) {
	return tensor.AppendMats(nil, n.Params()), nil
}

// DecodeParams overwrites the network parameters with values decoded from
// data (produced by EncodeParams on an architecturally identical network).
// The blob is validated in full first — count, every shape, total length —
// so a rejected blob leaves the network as it was.
func (n *NetworkOf[T]) DecodeParams(data []byte) error {
	if err := tensor.DecodeMatsInto(n.Params(), data); err != nil {
		return fmt.Errorf("nn: decoding params: %w", err)
	}
	return nil
}

// ViewParams points the network's parameters into data, a blob in the
// push layout (tensor.AppendAlignedMats of an architecturally identical
// network's Params), instead of copying them: the network then reads
// data, which must outlive that use and must not change during it, and
// nothing may write the parameters. Validation is DecodeParams', in full
// and first, so a rejected blob leaves the network as it was.
func (n *NetworkOf[T]) ViewParams(data []byte) error {
	if err := tensor.ViewMatsInto(n.Params(), data); err != nil {
		return fmt.Errorf("nn: viewing params: %w", err)
	}
	return nil
}

// ParamsL2 returns the L2 norm over all parameters, useful as a cheap
// network fingerprint in tests and logs.
func (n *NetworkOf[T]) ParamsL2() float64 {
	s := 0.0
	for _, p := range n.Params() {
		for _, v := range p.Data {
			s += float64(v) * float64(v)
		}
	}
	return s
}

// MLP builds a multilayer perceptron with the given layer sizes and a
// hidden activation applied after every hidden Linear layer; outAct (may be
// nil for raw logits) is applied after the final Linear layer.
//
// Example: MLP([64, 256, 256, 784], NewTanh, NewTanh, rng) is the paper's
// generator topology.
func MLP(sizes []int, hidden func() Layer, outAct func() Layer, rng *tensor.RNG) *Network {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i < len(sizes)-1; i++ {
		layers = append(layers, NewLinear(sizes[i], sizes[i+1], rng))
		last := i == len(sizes)-2
		switch {
		case last && outAct != nil:
			layers = append(layers, outAct())
		case !last && hidden != nil:
			layers = append(layers, hidden())
		}
	}
	return NewNetwork(layers...)
}
