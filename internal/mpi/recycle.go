package mpi

import (
	"sync"
	"sync/atomic"
)

// This file recycles Multicast payloads. A rank that pushes a large
// buffer every round would otherwise hand the garbage collector one per
// round; instead the buffer goes back to its sender once every receiver
// has released it.
//
// A payload is referenced by its sender while Multicast runs, by each
// queued in-process delivery until the receiver calls Message.Release, and
// by each delayed message while a fault layer holds it. A dropped message
// takes no reference, and neither does a frame written to a TCP peer: the
// bytes are on the wire once sendWorld returns. When the last reference
// goes, the payload joins the sending Comm's free list, which Comm.Reuse
// draws from. A receiver that never releases leaves the payload to the
// garbage collector.

// pool is a Comm's free list. It tracks nothing until the Comm's first
// Reuse: a Comm whose sender never draws from its free list keeps no record
// of what it sent, so deliveries nobody releases cost nothing.
type pool struct {
	mu     sync.Mutex
	active bool
	// live holds the record of every backing array with a reference
	// outstanding, keyed by its first byte, so that multicasting one array
	// twice counts both sends on one record.
	live map[*byte]*payload
	// free holds every released payload, emptied; it grows to the number
	// the sender keeps in flight.
	free [][]byte
}

// payload counts the references to one backing array. refs is guarded by
// the pool's mutex.
type payload struct {
	pool *pool
	data []byte
	refs int
}

// delivery is one queued message's reference on its payload.
type delivery struct {
	p        *payload
	released atomic.Bool
}

// poisonRecycled is the test seam behind PoisonRecycled.
var poisonRecycled atomic.Bool

// PoisonRecycled, while on, overwrites every payload with 0xFF as it joins
// a free list, so a receiver that reads a payload after releasing it reads
// garbage. Tests turn it on to check that releases come after the last
// read; it costs one atomic load per recycled payload when off.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }

// arrayOf keys a backing array by its first byte; data must have capacity.
func arrayOf(data []byte) *byte { return &data[:1][0] }

// Reuse returns an empty buffer from the free list — the backing array of
// a payload this Comm multicast and every receiver released — or nil when
// the list is empty. The caller owns it until it multicasts it again. The
// first call starts the tracking that fills the list.
func (c *Comm) Reuse() []byte {
	p := &c.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = true
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return b
}

// Hold keeps data, a payload this Comm is about to multicast or has
// multicast, off the free list until the returned release is called, so
// that its sender may multicast the same bytes again later. Only the
// first call of release counts. While Reuse has never been called there
// is no free list, and Hold holds nothing.
func (c *Comm) Hold(data []byte) (release func()) {
	return (&delivery{p: c.pool.track(data)}).release
}

// track returns the record of a multicast of data, holding the sender's
// reference, or nil when the pool is dormant or data has no backing array.
// An array that is on the free list leaves it: the caller still uses it.
func (p *pool) track(data []byte) *payload {
	if cap(data) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return nil
	}
	key := arrayOf(data)
	r := p.live[key]
	if r == nil {
		for i, b := range p.free {
			if arrayOf(b) == key {
				p.free = append(p.free[:i], p.free[i+1:]...)
				break
			}
		}
		if p.live == nil {
			p.live = make(map[*byte]*payload)
		}
		r = &payload{pool: p, data: data}
		p.live[key] = r
	}
	r.refs++
	return r
}

// hold takes one more reference; a nil record tracks nothing.
func (r *payload) hold() {
	if r == nil {
		return
	}
	r.pool.mu.Lock()
	r.refs++
	r.pool.mu.Unlock()
}

// drop gives one reference back; the last puts the array on the free list.
func (r *payload) drop() {
	if r == nil {
		return
	}
	p := r.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.refs--; r.refs > 0 {
		return
	}
	delete(p.live, arrayOf(r.data))
	if poisonRecycled.Load() {
		for i := range r.data {
			r.data[i] = 0xFF
		}
	}
	p.free = append(p.free, r.data[:0])
}

// deliver takes the reference of one queued delivery.
func (r *payload) deliver() *delivery {
	if r == nil {
		return nil
	}
	r.hold()
	return &delivery{p: r}
}

// release gives a delivery's reference back, once.
func (d *delivery) release() {
	if d != nil && d.released.CompareAndSwap(false, true) {
		d.p.drop()
	}
}
