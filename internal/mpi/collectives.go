package mpi

import (
	"encoding/binary"
	"fmt"
)

// Barrier blocks until every member of the communicator has entered it.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag()
	if c.Size() == 1 {
		return nil
	}
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.recv(c.group[r], tag); err != nil {
				return err
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.send(r, tag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tag, nil); err != nil {
		return err
	}
	_, err := c.recv(c.group[0], tag)
	return err
}

// gather collects every member's data at rank 0, ordered by rank; the
// other members get nil.
func (c *Comm) gather(data []byte) ([][]byte, error) {
	tag := c.nextCollTag()
	if c.rank != 0 {
		return nil, c.send(0, tag, data)
	}
	out := make([][]byte, c.Size())
	out[0] = data
	for i := 1; i < c.Size(); i++ {
		m, err := c.recv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[m.Src] = m.Data
	}
	return out, nil
}

// bcast distributes rank 0's data to every member over a binomial tree
// (⌈log₂ n⌉ rounds; each holder forwards to one new member per round).
// Rank 0 gets data back as is, every other member its own copy.
func (c *Comm) bcast(data []byte) ([]byte, error) {
	tag := c.nextCollTag()
	mask := 1
	if c.rank == 0 {
		for mask < c.Size() {
			mask <<= 1
		}
	} else {
		// The parent is this rank with its lowest set bit cleared.
		for c.rank&mask == 0 {
			mask <<= 1
		}
		m, err := c.recv(c.group[c.rank-mask], tag)
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	// Forward to the children below that bit, the highest subtree first.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := c.rank + mask; child < c.Size() {
			if err := c.send(child, tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Allgather collects each member's data and distributes the full set to
// every member, ordered by rank: a gather at rank 0, then a binomial
// broadcast of the packed parts. Split exchanges colors and keys with it.
// The returned parts are sub-slices of one buffer private to the caller,
// each clipped to its own length: appending to one reallocates it instead
// of running into the next.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.gather(data)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed = packParts(parts)
	}
	packed, err = c.bcast(packed)
	if err != nil {
		return nil, err
	}
	return unpackParts(packed, c.Size())
}

// packParts frames a list of byte slices as one payload.
func packParts(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(parts)))
	out = append(out, n[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		out = append(out, n[:]...)
		out = append(out, p...)
	}
	return out
}

// unpackParts reverses packParts, validating the expected part count. The
// parts alias b, each clipped to its own length.
func unpackParts(b []byte, want int) ([][]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("mpi: packed parts too short (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n != want {
		return nil, fmt.Errorf("mpi: packed parts count %d, want %d", n, want)
	}
	b = b[4:]
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("mpi: truncated part header at %d", i)
		}
		l := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < l {
			return nil, fmt.Errorf("mpi: truncated part %d: want %d bytes, have %d", i, l, len(b))
		}
		out[i] = b[:l:l]
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("mpi: %d trailing bytes after parts", len(b))
	}
	return out, nil
}
