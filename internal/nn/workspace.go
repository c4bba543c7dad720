package nn

import (
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

// keptScratch is embedded by every layer to implement the nil-scratch
// form of the Layer contract.
type keptScratch[T tensor.Float] struct{ kept *LayerScratchOf[T] }

// begin resolves the scratch of a Forward pass — s, or a fresh one kept
// for the matching Backward when s is nil — and records the input on it.
func (k *keptScratch[T]) begin(s *LayerScratchOf[T], x *tensor.Matrix[T]) *LayerScratchOf[T] {
	if s == nil {
		s = new(LayerScratchOf[T])
		k.kept = s
	}
	s.in = x
	return s
}

// resume resolves the scratch of a Backward pass: s, or the scratch kept
// by the preceding nil-scratch Forward. The kept scratch gets a fresh
// gradient matrix per call, so results of the allocating form never alias
// one another.
func (k *keptScratch[T]) resume(s *LayerScratchOf[T]) *LayerScratchOf[T] {
	if s == nil && k.kept != nil {
		s = k.kept
		s.dIn = tensor.Matrix[T]{}
	}
	if s == nil || s.in == nil {
		panic("nn: Backward before Forward")
	}
	return s
}

// Workspace is the per-layer scratch list of one network's
// forward/backward pass. Reusing a Workspace across iterations eliminates
// the per-step allocations of Network.Forward/Backward: scratches are
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
type WorkspaceOf[T tensor.Float] struct {
	layers []*LayerScratchOf[T] // layers[i] serves layer slot i
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// layer returns the scratch for layer slot i, growing the list on demand.
// A nil workspace yields nil scratches: fresh buffers per pass.
func (ws *WorkspaceOf[T]) layer(i int) *LayerScratchOf[T] {
	if ws == nil {
		return nil
	}
	for len(ws.layers) <= i {
		ws.layers = append(ws.layers, new(LayerScratchOf[T]))
	}
	return ws.layers[i]
}

// ForwardWS propagates a batch through every layer on ws-owned scratch.
// The returned matrix aliases workspace storage and is only valid until
// the next pass through ws. A nil ws runs the same path on fresh scratch.
func (n *NetworkOf[T]) ForwardWS(ws *WorkspaceOf[T], x *tensor.Matrix[T]) *tensor.Matrix[T] {
	for i, l := range n.Layers {
		x = l.Forward(ws.layer(i), x)
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
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(ws.layer(i), grad, need|NeedInput)
	}
	return n.Layers[0].Backward(ws.layer(0), grad, need)
}
