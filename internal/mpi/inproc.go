package mpi

import (
	"fmt"
	"sync"
)

// World is the in-process transport: n ranks in one OS process, one
// goroutine (or more) per rank, messages moved between in-memory
// mailboxes. It reproduces the process structure of an MPI job — the
// paper's two-level parallel model maps MPI processes onto goroutines and
// their internal threads onto further goroutines.
type World struct {
	boxes []*mailbox

	mu     sync.Mutex
	closed bool
}

// NewWorld creates an in-process world of n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	w := &World{boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w, nil
}

// MustWorld is NewWorld that panics on error.
func MustWorld(n int) *World {
	w, err := NewWorld(n)
	if err != nil {
		panic(err)
	}
	return w
}

// inprocEndpoint is one rank's handle on a World.
type inprocEndpoint struct {
	w    *World
	rank int
}

func (e *inprocEndpoint) sendWorld(dst int, m wireMsg) error {
	if dst < 0 || dst >= len(e.w.boxes) {
		return fmt.Errorf("mpi: destination world rank %d out of range [0,%d)", dst, len(e.w.boxes))
	}
	return e.w.boxes[dst].put(m)
}

func (e *inprocEndpoint) recvWorld(commID uint32, srcWorld, tag int) (wireMsg, error) {
	return e.w.boxes[e.rank].take(commID, srcWorld, tag)
}

func (e *inprocEndpoint) tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	return e.w.boxes[e.rank].tryTake(commID, srcWorld, tag)
}

func (e *inprocEndpoint) worldRank() int { return e.rank }
func (e *inprocEndpoint) worldSize() int { return len(e.w.boxes) }

func (e *inprocEndpoint) close() error {
	e.w.Close()
	return nil
}

// Comm returns the world communicator handle for the given rank. Each rank
// must use its own handle.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= len(w.boxes) {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, len(w.boxes))
	}
	group := make([]int, len(w.boxes))
	for i := range group {
		group[i] = i
	}
	return newComm(&inprocEndpoint{w: w, rank: rank}, worldCommID, group)
}

// MustComm is Comm that panics on error.
func (w *World) MustComm(rank int) *Comm {
	c, err := w.Comm(rank)
	if err != nil {
		panic(err)
	}
	return c
}

// Comms returns one world communicator handle per rank.
func (w *World) Comms() []*Comm {
	out := make([]*Comm, len(w.boxes))
	for i := range out {
		out[i] = w.MustComm(i)
	}
	return out
}

// Close shuts the world down, unblocking all pending receives with
// ErrClosed.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for _, b := range w.boxes {
		b.close()
	}
}
