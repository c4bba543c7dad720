package nn

import (
	"unsafe"

	"cellgan/internal/tensor"
)

// LayerScratch owns every buffer one layer needs for a forward→backward
// pair: the layer output, ∂L/∂input, the cached forward input, and the
// auxiliary matrices of the conv lowering (im2col patches, position-major
// staging). The matrices reuse their backing storage across passes via
// Resize, so a scratch that has seen its largest batch never allocates
// again. The zero value is ready to use.
type LayerScratchOf[T tensor.Float] struct {
	in  *tensor.Matrix[T] // input of the most recent Forward (not owned)
	out tensor.Matrix[T]  // layer output
	dIn tensor.Matrix[T]  // ∂L/∂input
	aux [3]tensor.Matrix[T]
}

// forwarded panics unless a Forward ran on s: Backward reads what it
// cached there.
func (s *LayerScratchOf[T]) forwarded() {
	if s.in == nil {
		panic("nn: Backward before Forward")
	}
}

// Workspace is the per-layer scratch list of one network's
// forward/backward pass. Reused across iterations it leaves a pass no
// per-step allocations: scratches are
// created on first use and resized (which only reallocates when a
// batch-shape change outgrows capacity) on every subsequent pass.
//
// A Workspace is owned by exactly one goroutine and must not be shared
// between concurrently running networks. It may be shared across networks
// sequentially (e.g. one workspace per cell, reused by the generator and
// discriminator in turn) as long as each forward→backward pair completes
// before the workspace is handed to the next network: the matrices
// returned by ForwardWS/InputGradWS alias workspace storage. The zero value
// is an empty workspace.
//
// A forward-only workspace (NewForwardWorkspace) keeps only the last
// layer's output: every earlier layer runs on a ForwardPair that all
// forward-only workspaces of one goroutine share, so the fitness and
// sampling passes of a goroutine hold one output per workspace plus the
// pair's two scratches, not every intermediate of every network. Backward
// passes on it panic.
type WorkspaceOf[T tensor.Float] struct {
	layers []*LayerScratchOf[T] // layers[i] serves layer slot i; forward-only: layers[0] serves the last layer
	pair   *ForwardPairOf[T]    // non-nil: forward-only, intermediates alternate on it
}

// ForwardPairOf is the two scratches the intermediate layers of
// forward-only workspaces alternate on: layer i writes pair[i%2] while it
// reads its input from the other one. One goroutine's forward-only
// workspaces may share a pair, because nothing but a network's last layer
// outlives its pass. The zero value is ready to use.
type ForwardPairOf[T tensor.Float] [2]LayerScratchOf[T]

// ForwardPair is the float64 ForwardPairOf.
type ForwardPair = ForwardPairOf[float64]

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewForwardWorkspace returns an empty forward-only workspace whose
// intermediate layers run on p. The matrix ForwardWS returns on it stays
// valid until the next pass through the same workspace, whatever runs on p
// in between.
func NewForwardWorkspace[T tensor.Float](p *ForwardPairOf[T]) *WorkspaceOf[T] {
	return &WorkspaceOf[T]{pair: p}
}

// layer returns the scratch for layer slot i, growing the list on demand.
func (ws *WorkspaceOf[T]) layer(i int) *LayerScratchOf[T] {
	for len(ws.layers) <= i {
		ws.layers = append(ws.layers, new(LayerScratchOf[T]))
	}
	return ws.layers[i]
}

// Bytes returns the size of the buffers ws holds; a forward-only
// workspace's pair is not counted (ForwardPairOf.Bytes is).
func (ws *WorkspaceOf[T]) Bytes() int {
	n := 0
	for _, s := range ws.layers {
		n += s.bytes()
	}
	return n
}

// Bytes returns the size of the buffers p holds.
func (p *ForwardPairOf[T]) Bytes() int { return p[0].bytes() + p[1].bytes() }

// bytes returns the capacity of every matrix s owns, in bytes.
func (s *LayerScratchOf[T]) bytes() int {
	n := cap(s.out.Data) + cap(s.dIn.Data)
	for i := range s.aux {
		n += cap(s.aux[i].Data)
	}
	return n * int(unsafe.Sizeof(T(0)))
}

// forward returns the scratch a forward pass runs layer i of n on.
func (ws *WorkspaceOf[T]) forward(i, n int) *LayerScratchOf[T] {
	if ws.pair != nil {
		if i < n-1 {
			return &ws.pair[i%2]
		}
		i = 0
	}
	return ws.layer(i)
}

// ForwardWS propagates a batch through every layer on ws-owned scratch.
// The returned matrix aliases workspace storage and is only valid until
// the next pass through ws.
func (n *NetworkOf[T]) ForwardWS(ws *WorkspaceOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	for i, l := range n.Layers {
		x = l.Forward(ws.forward(i, len(n.Layers)), x)
	}
	return x
}

// BackwardWS is the train pass on the scratch ForwardWS ran on: it
// accumulates parameter gradients and skips the first layer's ∂L/∂input.
func (n *NetworkOf[T]) BackwardWS(ws *WorkspaceOf[T], grad *tensor.Matrix[T]) {
	n.backward(ws, grad, NeedParams)
}

// InputGradWS is the critic pass on the scratch ForwardWS ran on: it returns
// ∂L/∂input, aliasing workspace storage, and touches no gradient accumulator.
func (n *NetworkOf[T]) InputGradWS(ws *WorkspaceOf[T], grad *tensor.Matrix[T]) *tensor.Matrix[T] {
	return n.backward(ws, grad, NeedInput)
}

// backward runs layer 0 with need and the rest with NeedInput added.
func (n *NetworkOf[T]) backward(ws *WorkspaceOf[T], grad *tensor.Matrix[T], need Need) *tensor.Matrix[T] {
	if ws.pair != nil {
		panic("nn: backward pass on a forward-only workspace")
	}
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(ws.layer(i), grad, need|NeedInput)
	}
	return n.Layers[0].Backward(ws.layer(0), grad, need)
}
