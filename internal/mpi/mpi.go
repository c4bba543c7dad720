// Package mpi implements the message-passing substrate of the parallel
// implementation: MPI-flavoured communicators over interchangeable
// transports.
//
// The paper's implementation uses mpi4py with three communication contexts
// — WORLD for global control, LOCAL for collective operations among active
// slaves, and GLOBAL for collectives that include the master (§III-D). This
// package reproduces that surface: point-to-point tagged Send/Recv with
// wildcard source/tag, the collective operations the training loop needs
// (Barrier, Bcast, Gather, Allgather, Scatter, Reduce, Allreduce), CommSplit
// for deriving sub-communicators, and a Cartesian topology helper mirroring
// MPI_CART_CREATE.
//
// Two transports are provided. The inproc transport runs every rank as a
// goroutine inside one process and carries messages over in-memory
// mailboxes; it is the default for training and testing. The tcp transport
// (see tcp.go) connects genuinely separate processes over sockets with the
// same semantics, enabling real distributed deployment.
package mpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
)

// Wildcards for Recv, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// maxUserTag bounds application tags; larger tags are reserved for the
// collective-operation protocol.
const maxUserTag = 1 << 24

// collTagBase is the start of the reserved collective tag space.
const collTagBase = 1 << 25

// ErrClosed is returned by operations on a closed communicator or
// transport.
var ErrClosed = errors.New("mpi: communicator closed")

// Message is a received point-to-point message.
type Message struct {
	// Src is the comm-relative rank of the sender.
	Src int
	// Tag is the application tag the message was sent with.
	Tag int
	// Data is the payload. It is the receiver's own, except that the
	// receivers of one Multicast share it with each other and with its
	// sender: none may write to it, and once the receiver has called
	// Release it must not read it either, since the sender may write its
	// next payload into the same bytes.
	Data []byte

	del *delivery
}

// Release tells the sender that this receiver no longer reads Data. Once
// every in-process receiver of a Multicast payload has released it, the
// payload goes back to the sender through Comm.Reuse. Releasing is
// optional — an unreleased payload is left to the garbage collector — and
// idempotent per delivered message; it is a no-op for a message that was
// copied (Send, a collective) or read off a TCP connection.
func (m Message) Release() { m.del.release() }

// wireMsg is the transport-level representation of a message. Src is a
// world rank; Comm scopes the message to one communicator.
type wireMsg struct {
	Comm uint32
	Src  int
	Tag  int
	Data []byte
	// pay is Data's reference count on the sending side, nil when Data is
	// untracked; a mailbox turns it into the message's own delivery.
	pay *payload
	del *delivery
}

// endpoint is the per-process transport handle. Implementations must be
// safe for concurrent use.
type endpoint interface {
	// sendWorld delivers m to the process with the given world rank.
	sendWorld(dstWorld int, m wireMsg) error
	// recvWorld blocks until a message matching (commID, srcWorld, tag)
	// arrives; srcWorld/tag may be AnySource/AnyTag.
	recvWorld(commID uint32, srcWorld int, tag int) (wireMsg, error)
	// worldRank is this process's rank in the world communicator.
	worldRank() int
	// worldSize is the total number of processes.
	worldSize() int
	// close releases the endpoint, unblocking pending receives.
	close() error
}

// worldCommID is the communicator id of the world communicator on every
// transport.
const worldCommID uint32 = 1

// Comm is a communicator: an ordered group of processes with a private
// message context. A Comm handle belongs to one process; its methods may
// be called from multiple goroutines of that process.
type Comm struct {
	ep   endpoint
	id   uint32
	pool pool
	// group maps comm rank -> world rank.
	group []int
	// worldToComm maps world rank -> comm rank.
	worldToComm map[int]int
	rank        int

	collSeq  atomic.Uint32
	splitSeq atomic.Uint32
}

func newComm(ep endpoint, id uint32, group []int) (*Comm, error) {
	w2c := make(map[int]int, len(group))
	for i, wr := range group {
		w2c[wr] = i
	}
	me, ok := w2c[ep.worldRank()]
	if !ok {
		return nil, fmt.Errorf("mpi: process %d not in communicator group %v", ep.worldRank(), group)
	}
	return &Comm{ep: ep, id: id, group: group, worldToComm: w2c, rank: me}, nil
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns this process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.ep.worldRank() }

// Group returns a copy of the comm-rank → world-rank mapping.
func (c *Comm) Group() []int { return append([]int(nil), c.group...) }

func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, r, len(c.group))
	}
	return nil
}

// Send delivers data to dst (comm rank) with the given tag. The payload is
// copied: data is not aliased after Send returns, and the caller may reuse
// it.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkRank(dst, "destination"); err != nil {
		return err
	}
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, maxUserTag)
	}
	return c.send(dst, tag, data)
}

// send skips user-tag validation so collectives can use reserved tags; it
// copies data as Send does.
func (c *Comm) send(dst, tag int, data []byte) error {
	return c.multicast([]int{dst}, tag, append([]byte(nil), data...), nil)
}

// Multicast delivers data to every member in dests (comm ranks) with the
// given tag, as a Send to each in order would, but without a copy:
// Multicast takes ownership of data. Every destination's message shares
// it — in-process receivers get the sender's backing array itself — so
// receivers must treat Message.Data as read-only, and the caller must not
// modify data until it has it back from Reuse, which happens once every
// in-process delivery has been released (Message.Release). A caller that
// never uses Reuse must never modify it. Multicasting the same array again
// while it is out is allowed and counts both sends. It stops at the first
// destination that fails.
func (c *Comm) Multicast(dests []int, tag int, data []byte) error {
	for _, r := range dests {
		if err := c.checkRank(r, "destination"); err != nil {
			return err
		}
	}
	if tag < 0 || tag >= maxUserTag {
		return fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, maxUserTag)
	}
	if len(dests) == 0 {
		return nil
	}
	return c.multicast(dests, tag, data, c.pool.track(data))
}

// multicast skips validation: dests are checked comm ranks, tag may be
// reserved. It hands data to the transport as is and then drops the
// sender's reference on pay, if any.
func (c *Comm) multicast(dests []int, tag int, data []byte, pay *payload) error {
	defer pay.drop()
	m := wireMsg{Comm: c.id, Src: c.ep.worldRank(), Tag: tag, Data: data, pay: pay}
	for _, r := range dests {
		if err := c.ep.sendWorld(c.group[r], m); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks until a message from src (or AnySource) with the given tag
// (or AnyTag) arrives on this communicator.
func (c *Comm) Recv(src, tag int) (Message, error) {
	srcWorld := AnySource
	if src != AnySource {
		if err := c.checkRank(src, "source"); err != nil {
			return Message{}, err
		}
		srcWorld = c.group[src]
	}
	if tag != AnyTag && (tag < 0 || tag >= maxUserTag) {
		return Message{}, fmt.Errorf("mpi: tag %d out of range [0,%d)", tag, maxUserTag)
	}
	return c.recv(srcWorld, tag)
}

// recv matches on world source rank and raw (possibly reserved) tags.
func (c *Comm) recv(srcWorld, tag int) (Message, error) {
	m, err := c.ep.recvWorld(c.id, srcWorld, tag)
	if err != nil {
		return Message{}, err
	}
	commSrc, ok := c.worldToComm[m.Src]
	if !ok {
		return Message{}, fmt.Errorf("mpi: message from world rank %d not in communicator", m.Src)
	}
	return Message{Src: commSrc, Tag: m.Tag, Data: m.Data, del: m.del}, nil
}

// Sendrecv performs a combined send to dst and receive from src with the
// same tag, as MPI_Sendrecv; it never deadlocks under paired usage because
// the send buffers the payload before blocking on the receive.
func (c *Comm) Sendrecv(dst, src, tag int, data []byte) (Message, error) {
	if err := c.Send(dst, tag, data); err != nil {
		return Message{}, err
	}
	return c.Recv(src, tag)
}

// Close releases the communicator's transport endpoint. All communicators
// derived from the same endpoint become unusable.
func (c *Comm) Close() error { return c.ep.close() }

// nextCollTag reserves a tag for one collective operation. Members of a
// communicator invoke collectives in the same order, so independent
// counters agree across processes.
func (c *Comm) nextCollTag() int {
	return collTagBase + int(c.collSeq.Add(1))
}

// Split partitions the communicator by color, as MPI_Comm_split: processes
// passing the same color form a new communicator, ranked by (key, old
// rank). Every member of c must call Split. A negative color returns
// (nil, nil): the caller does not join any new communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Exchange (color, key) with every member.
	payload := make([]byte, 16)
	putI64(payload[0:], int64(color))
	putI64(payload[8:], int64(key))
	all, err := c.Allgather(payload)
	if err != nil {
		return nil, fmt.Errorf("mpi: split exchange: %w", err)
	}
	gen := c.splitSeq.Add(1)
	if color < 0 {
		return nil, nil
	}
	type member struct {
		key, commRank int
	}
	var members []member
	for r, b := range all {
		if len(b) != 16 {
			return nil, fmt.Errorf("mpi: split: malformed exchange payload from rank %d", r)
		}
		if int(getI64(b[0:])) == color {
			members = append(members, member{key: int(getI64(b[8:])), commRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].commRank < members[j].commRank
	})
	group := make([]int, len(members))
	for i, m := range members {
		group[i] = c.group[m.commRank]
	}
	// Derive a communicator id every member computes identically.
	h := fnv.New32a()
	var hb [12]byte
	put32(hb[0:], c.id)
	put32(hb[4:], gen)
	put32(hb[8:], uint32(color))
	h.Write(hb[:])
	id := h.Sum32()
	if id <= worldCommID {
		id += 2
	}
	return newComm(c.ep, id, group)
}

// Dup returns a new communicator with the same group but a separate
// message context, like MPI_Comm_dup. Every member must call Dup.
func (c *Comm) Dup() (*Comm, error) {
	return c.Split(0, c.rank)
}

func putI64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getI64(b []byte) int64 {
	var v int64
	for i := 0; i < 8; i++ {
		v |= int64(b[i]) << (8 * i)
	}
	return v
}

func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
