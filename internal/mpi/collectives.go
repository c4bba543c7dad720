package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Bcast distributes root's data to every member using a binomial tree
// (⌈log₂ n⌉ rounds; each holder forwards to one new member per round);
// every member receives a copy (the root gets its own payload back).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.checkRank(root, "root"); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	size := c.Size()
	// Virtual ranks place the root at 0: vrank = (rank − root) mod n.
	vrank := (c.rank - root + size) % size
	payload := data
	if vrank != 0 {
		// Receive from the parent: clear the lowest set bit of vrank.
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := (vrank - mask + root) % size
		m, err := c.recv(c.group[parent], tag)
		if err != nil {
			return nil, err
		}
		payload = m.Data
		// Forward to children above the received bit.
		for mask >>= 1; mask > 0; mask >>= 1 {
			child := vrank + mask
			if child < size {
				if err := c.send((child+root)%size, tag, payload); err != nil {
					return nil, err
				}
			}
		}
		return payload, nil
	}
	// Root: send to vranks 1, 2, 4, 8, … descending so the highest
	// subtree starts first.
	highest := 1
	for highest < size {
		highest <<= 1
	}
	for mask := highest >> 1; mask > 0; mask >>= 1 {
		child := mask
		if child < size {
			if err := c.send((child+root)%size, tag, payload); err != nil {
				return nil, err
			}
		}
	}
	return append([]byte(nil), payload...), nil
}

// Gather collects each member's data at root. At the root the result has
// Size() entries ordered by rank; other members receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.checkRank(root, "root"); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	if c.rank != root {
		return nil, c.send(root, tag, data)
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for i := 1; i < c.Size(); i++ {
		m, err := c.recv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		out[m.Src] = m.Data
	}
	return out, nil
}

// Allgather collects each member's data and distributes the full set to
// every member, ordered by rank. This is the operation the slaves use each
// iteration to exchange center networks with their neighbourhoods
// (the paper's profile attributes the "gather" routine to MPI allgather).
// The returned parts are sub-slices of one buffer private to the caller,
// each clipped to its own length: appending to one reallocates it instead
// of running into the next.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed = packParts(parts)
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return unpackParts(packed, c.Size())
}

// Scatter distributes parts[i] from root to member i; every member
// (including the root) returns its own part.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if err := c.checkRank(root, "root"); err != nil {
		return nil, err
	}
	tag := c.nextCollTag()
	if c.rank == root {
		if len(parts) != c.Size() {
			return nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", c.Size(), len(parts))
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.send(r, tag, parts[r]); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), parts[root]...), nil
	}
	m, err := c.recv(c.group[root], tag)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// ReduceOp combines two float64 element-wise vectors in place (dst op= src).
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMax
	OpMin
)

func (op ReduceOp) apply(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mpi: reduce length mismatch %d vs %d", len(dst), len(src))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpProd:
		for i, v := range src {
			dst[i] *= v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		return fmt.Errorf("mpi: unknown reduce op %d", op)
	}
	return nil
}

// EncodeFloats serialises a float64 vector for message payloads.
func EncodeFloats(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// DecodeFloats deserialises a payload produced by EncodeFloats.
func DecodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: float payload length %d not a multiple of 8", len(b))
	}
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs, nil
}

// Reduce combines each member's vector with op; the root returns the
// combined vector (deterministic rank order), others return nil.
func (c *Comm) Reduce(root int, data []float64, op ReduceOp) ([]float64, error) {
	parts, err := c.Gather(root, EncodeFloats(data))
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	// Combine in rank order so floating-point results are reproducible.
	acc, err := DecodeFloats(parts[0])
	if err != nil {
		return nil, err
	}
	for r := 1; r < len(parts); r++ {
		v, err := DecodeFloats(parts[r])
		if err != nil {
			return nil, err
		}
		if err := op.apply(acc, v); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Allreduce combines every member's vector with op and distributes the
// result to all members.
func (c *Comm) Allreduce(data []float64, op ReduceOp) ([]float64, error) {
	acc, err := c.Reduce(0, data, op)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed = EncodeFloats(acc)
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return DecodeFloats(packed)
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
