package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// matMagic guards against decoding arbitrary byte streams as matrices.
const matMagic = 0x4d41545a // "MATZ"

// matHeaderSize is the encoded magic, rows and cols (uint32 each).
const matHeaderSize = 12

// MatsSize returns the exact length of AppendMats' encoding of ms.
func MatsSize[T Float](ms []*Matrix[T]) int {
	n := 4
	for _, m := range ms {
		n += matHeaderSize + 8*len(m.Data)
	}
	return n
}

// AppendMats appends a sequence of matrices to dst in a fixed little-endian
// binary format — a uint32 count, then per matrix magic, rows, cols (uint32
// each) and Rows*Cols float64 bits (float32 elements widened exactly) —
// growing dst at most once.
func AppendMats[T Float](dst []byte, ms []*Matrix[T]) []byte {
	dst = slices.Grow(dst, MatsSize(ms))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ms)))
	for _, m := range ms {
		dst = binary.LittleEndian.AppendUint32(dst, matMagic)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Cols))
		at := len(dst)
		dst = dst[:at+8*len(m.Data)]
		floatsTo(dst[at:], m.Data)
	}
	return dst
}

// copyCodec selects the copy codec: on a little-endian host a float64's
// memory is its wire encoding, so float64 elements encode and decode as
// one copy through the slice viewed as bytes. Float32 widening and
// big-endian hosts run the per-element loops, which stay as the oracle the
// tests hold the copy to. The platform sets it, nothing else.
var copyCodec = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views s, whose elements must be 8 bytes wide, as its len(s)·8
// bytes of memory. The view is taken from the float slice, never the other
// way round: a push's matrices start at unaligned offsets, so no *float64
// is made from bytes.
func f64Bytes[T Float](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// floatsTo writes the little-endian float64 encoding of src into body.
func floatsTo[T Float](body []byte, src []T) {
	var zero T
	if copyCodec && unsafe.Sizeof(zero) == 8 {
		copy(body, f64Bytes(src))
		return
	}
	floatsToLoop(body, src)
}

// floatsToLoop is floatsTo one element at a time.
//
//go:noinline
func floatsToLoop[T Float](body []byte, src []T) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(float64(v)))
	}
}

// matCount splits the matrix count off the front of data. Every matrix
// takes at least a header, which bounds a plausible count by the input.
func matCount(data []byte) (n int, rest []byte, err error) {
	if len(data) < 4 {
		return 0, nil, errors.New("tensor: truncated matrix count")
	}
	count, rest := binary.LittleEndian.Uint32(data), data[4:]
	if uint64(count) > uint64(len(rest)/matHeaderSize) {
		return 0, nil, fmt.Errorf("tensor: matrix count %d exceeds the %d bytes that follow", count, len(rest))
	}
	return int(count), rest, nil
}

// splitMat parses the matrix at the front of data into its shape, its
// encoded elements and the bytes after it. A declared size beyond the
// input is rejected here, before anything is allocated for it.
func splitMat(data []byte) (rows, cols int, body, rest []byte, err error) {
	if len(data) < matHeaderSize {
		return 0, 0, nil, nil, errors.New("tensor: truncated matrix header")
	}
	if binary.LittleEndian.Uint32(data) != matMagic {
		return 0, 0, nil, nil, errors.New("tensor: bad matrix magic")
	}
	r, c := binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
	data = data[matHeaderSize:]
	if uint64(r)*uint64(c) > uint64(len(data))/8 {
		return 0, 0, nil, nil, fmt.Errorf("tensor: %d×%d matrix exceeds the %d bytes that follow", r, c, len(data))
	}
	n := 8 * int(r) * int(c)
	return int(r), int(c), data[:n], data[n:], nil
}

// floatsFrom fills dst from its little-endian encoding in body.
func floatsFrom[T Float](dst []T, body []byte) {
	var zero T
	if copyCodec && unsafe.Sizeof(zero) == 8 {
		copy(f64Bytes(dst), body)
		return
	}
	floatsFromLoop(dst, body)
}

// floatsFromLoop is floatsFrom one element at a time. It stays a call:
// inlined into the generic DecodeMatsInto its loop spills (1.6× slower).
//
//go:noinline
func floatsFromLoop[T Float](dst []T, body []byte) {
	for i := range dst {
		dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:])))
	}
}

// DecodeMats decodes a sequence written by AppendMats from the front of
// data into fresh matrices and returns the bytes after it.
func DecodeMats(data []byte) (ms []*Mat, rest []byte, err error) {
	n, rest, err := matCount(data)
	if err != nil {
		return nil, nil, err
	}
	ms = make([]*Mat, n)
	for i := range ms {
		rows, cols, body, after, err := splitMat(rest)
		if err != nil {
			return nil, nil, err
		}
		ms[i] = New(rows, cols)
		floatsFrom(ms[i].Data, body)
		rest = after
	}
	return ms, rest, nil
}

// DecodeMatsInto overwrites dst with the sequence encoded in data, which
// must hold exactly len(dst) matrices of dst's shapes and nothing else.
// Everything is validated before the first store: on error dst is
// untouched.
func DecodeMatsInto[T Float](dst []*Matrix[T], data []byte) error {
	n, rest, err := matCount(data)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("tensor: %d encoded matrices, want %d", n, len(dst))
	}
	for i, m := range dst {
		rows, cols, _, after, err := splitMat(rest)
		if err != nil {
			return err
		}
		if rows != m.Rows || cols != m.Cols {
			return fmt.Errorf("tensor: encoded matrix %d has shape %d×%d, want %d×%d", i, rows, cols, m.Rows, m.Cols)
		}
		rest = after
	}
	if len(rest) != 0 {
		return fmt.Errorf("tensor: %d trailing bytes after the matrices", len(rest))
	}
	rest = data[4:]
	for _, m := range dst {
		floatsFrom(m.Data, rest[matHeaderSize:])
		rest = rest[matHeaderSize+8*len(m.Data):]
	}
	return nil
}

// AllFinite reports whether no element of any matrix in ms is NaN or ±Inf
// — the scan decoders of untrusted parameter blobs run before use.
func AllFinite(ms []*Mat) bool {
	for _, m := range ms {
		for _, v := range m.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
