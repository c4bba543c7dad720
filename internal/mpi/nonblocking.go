package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Request is a handle on a non-blocking operation, in the spirit of
// MPI_Request. Exactly one of Wait or repeated Test calls should be used
// to complete it.
type Request struct {
	mu   sync.Mutex
	done chan struct{}
	msg  Message
	err  error
}

func newRequest() *Request {
	return &Request{done: make(chan struct{})}
}

func (r *Request) complete(m Message, err error) {
	r.mu.Lock()
	r.msg = m
	r.err = err
	r.mu.Unlock()
	close(r.done)
}

// Wait blocks until the operation completes and returns its result. For a
// send request the Message is zero-valued.
func (r *Request) Wait() (Message, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msg, r.err
}

// Test reports whether the operation has completed; when it has, the
// result is returned as from Wait.
func (r *Request) Test() (Message, bool, error) {
	select {
	case <-r.done:
		m, err := r.Wait()
		return m, true, err
	default:
		return Message{}, false, nil
	}
}

// Isend starts a non-blocking send and returns immediately. Completion
// means the message is handed to the transport (both transports buffer,
// so Isend cannot deadlock against a matching Irecv).
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	req := newRequest()
	buf := append([]byte(nil), data...)
	go func() {
		req.complete(Message{}, c.Send(dst, tag, buf))
	}()
	return req
}

// Irecv starts a non-blocking receive matching (src, tag), which may use
// the AnySource/AnyTag wildcards.
func (c *Comm) Irecv(src, tag int) *Request {
	req := newRequest()
	go func() {
		m, err := c.Recv(src, tag)
		req.complete(m, err)
	}()
	return req
}

// WaitAll completes every request, returning the messages in order and
// the first error encountered (all requests are still drained).
func WaitAll(reqs []*Request) ([]Message, error) {
	msgs := make([]Message, len(reqs))
	var firstErr error
	for i, r := range reqs {
		m, err := r.Wait()
		msgs[i] = m
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: request %d: %w", i, err)
		}
	}
	return msgs, firstErr
}

// ErrTimeout is returned by RecvTimeout when no matching message arrives
// in time.
var ErrTimeout = errors.New("mpi: receive timed out")

// RecvTimeout is Recv with a deadline: it polls the mailbox via Probe and
// returns ErrTimeout if no matching message arrives within d. The master
// uses it to detect unresponsive slaves instead of blocking forever.
func (c *Comm) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	deadline := time.Now().Add(d)
	sleep := time.Millisecond
	for {
		ok, err := c.Probe(src, tag)
		if err != nil {
			return Message{}, err
		}
		if ok {
			return c.Recv(src, tag)
		}
		if time.Now().After(deadline) {
			return Message{}, ErrTimeout
		}
		time.Sleep(sleep)
		if sleep < 16*time.Millisecond {
			sleep *= 2
		}
	}
}

// TryRecv receives a message matching (src, tag) if one is already
// queued, without blocking; ok is false when nothing matches right now.
// Unlike a Probe/Recv pair it is race-free under concurrent receivers:
// the matching message is removed atomically, so two goroutines draining
// the same pattern never block each other. The asynchronous exchange
// loops drain their neighbour-state mailboxes with it.
func (c *Comm) TryRecv(src, tag int) (Message, bool, error) {
	srcWorld := AnySource
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return Message{}, false, err
		}
		srcWorld = c.group[src]
	}
	if tag != AnyTag && (tag < 0 || tag >= maxUserTag) {
		return Message{}, false, fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, maxUserTag)
	}
	type tryRecver interface {
		tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error)
	}
	tr, ok := c.ep.(tryRecver)
	if !ok {
		return Message{}, false, fmt.Errorf("mpi: transport does not support TryRecv")
	}
	m, ok, err := tr.tryRecvWorld(c.id, srcWorld, tag)
	if err != nil || !ok {
		return Message{}, false, err
	}
	commSrc, inGroup := c.worldToComm[m.Src]
	if !inGroup {
		return Message{}, false, fmt.Errorf("mpi: message from world rank %d not in communicator", m.Src)
	}
	return Message{Src: commSrc, Tag: m.Tag, Data: m.Data, del: m.del}, true, nil
}

func (e *inprocEndpoint) tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	return e.w.boxes[e.rank].tryTake(commID, srcWorld, tag)
}

func (t *TCPNode) tryRecvWorld(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	return t.inbox.tryTake(commID, srcWorld, tag)
}

// Probe reports whether a message matching (src, tag) is available
// without receiving it. It never blocks.
func (c *Comm) Probe(src, tag int) (bool, error) {
	srcWorld := AnySource
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return false, err
		}
		srcWorld = c.group[src]
	}
	type prober interface {
		probe(commID uint32, srcWorld, tag int) (bool, error)
	}
	p, ok := c.ep.(prober)
	if !ok {
		return false, fmt.Errorf("mpi: transport does not support Probe")
	}
	return p.probe(c.id, srcWorld, tag)
}

// probe on the shared mailbox scans without removing.
func (b *mailbox) probe(commID uint32, srcWorld, tag int) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, ErrClosed
	}
	for _, m := range b.queue {
		if matches(m, commID, srcWorld, tag) {
			return true, nil
		}
	}
	return false, nil
}

func (e *inprocEndpoint) probe(commID uint32, srcWorld, tag int) (bool, error) {
	return e.w.boxes[e.rank].probe(commID, srcWorld, tag)
}

func (t *TCPNode) probe(commID uint32, srcWorld, tag int) (bool, error) {
	return t.inbox.probe(commID, srcWorld, tag)
}
