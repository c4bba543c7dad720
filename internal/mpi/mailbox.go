package mpi

import (
	"slices"
	"sync"
)

// mailbox is an in-order message store with blocking, predicate-matched
// receives. Both transports (inproc and tcp) deliver incoming wire messages
// into a mailbox; Comm.Recv drains it with (comm, src, tag) matching,
// preserving MPI's non-overtaking order for messages that match the same
// receive pattern.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []wireMsg
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put appends a message and wakes any blocked receivers. A queued
// message of a tracked payload holds its own reference on it.
func (b *mailbox) put(m wireMsg) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	m.del = m.pay.deliver()
	b.queue = append(b.queue, m)
	b.cond.Broadcast()
	return nil
}

// matches reports whether m satisfies the (comm, src, tag) pattern.
func matches(m wireMsg, commID uint32, srcWorld, tag int) bool {
	if m.Comm != commID {
		return false
	}
	if srcWorld != AnySource && m.Src != srcWorld {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// take blocks until a message matching the pattern is available and
// removes the earliest such message. Removal clears the slot it frees at
// the queue's tail, so a taken payload is not kept alive by the queue's
// backing array.
func (b *mailbox) take(commID uint32, srcWorld, tag int) (wireMsg, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if matches(m, commID, srcWorld, tag) {
				b.queue = slices.Delete(b.queue, i, i+1)
				return m, nil
			}
		}
		if b.closed {
			return wireMsg{}, ErrClosed
		}
		b.cond.Wait()
	}
}

// tryTake removes and returns the earliest message matching the pattern
// without blocking; ok is false when no matching message is queued.
func (b *mailbox) tryTake(commID uint32, srcWorld, tag int) (wireMsg, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, m := range b.queue {
		if matches(m, commID, srcWorld, tag) {
			b.queue = slices.Delete(b.queue, i, i+1)
			return m, true, nil
		}
	}
	if b.closed {
		return wireMsg{}, false, ErrClosed
	}
	return wireMsg{}, false, nil
}

// close marks the mailbox closed and unblocks all waiting receivers.
func (b *mailbox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}
