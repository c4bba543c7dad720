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

// layout frames a matrix sequence: a uint32 count, then per matrix a
// uint32 magic, rows and cols and Rows*Cols little-endian float64 bits.
// The file layout, packed, has nothing else. The push layout, aligned,
// follows the count with the sequence's phase — how far past a 64-byte
// boundary of its buffer it was encoded — and zero-pads each header so
// that the body after it starts on such a boundary: every body is
// cache-line aligned in a 64-aligned buffer and 8-aligned in any
// 8-aligned one, which is what ViewMatsInto needs to read it in place.
type layout struct{ countSize, align int }

var packed, aligned = layout{4, 1}, layout{8, 64}

// pad returns the zero padding after a header that ends off bytes past a
// boundary.
func (l layout) pad(off int) int { return (l.align - off%l.align) % l.align }

// zeros is the padding the aligned layout writes and checks.
var zeros [64]byte

func (l layout) appendCount(dst []byte, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	if l == aligned {
		dst = binary.LittleEndian.AppendUint32(dst, uint32((len(dst)-4)%l.align))
	}
	return dst
}

func (l layout) appendHeader(dst []byte, rows, cols int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, matMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	return append(dst, zeros[:l.pad(len(dst))]...)
}

// matsSize returns the length of the l encoding of ms at offset at of its
// buffer.
func matsSize[T Float](l layout, ms []*Matrix[T], at int) int {
	end := at + l.countSize
	for _, m := range ms {
		end += matHeaderSize
		end += l.pad(end) + 8*len(m.Data)
	}
	return end - at
}

// MatsSize returns the exact length of AppendMats' encoding of ms.
func MatsSize[T Float](ms []*Matrix[T]) int { return matsSize(packed, ms, 0) }

// AlignedMatsSize bounds the length of AppendAlignedMats' encoding of ms,
// wherever in its buffer it starts.
func AlignedMatsSize[T Float](ms []*Matrix[T]) int { return matsSize(aligned, ms, 0) + aligned.align }

// AppendMats appends a sequence of matrices to dst in the file layout, a
// fixed little-endian binary format — a uint32 count, then per matrix
// magic, rows, cols (uint32 each) and Rows*Cols float64 bits (float32
// elements widened exactly) — growing dst at most once.
func AppendMats[T Float](dst []byte, ms []*Matrix[T]) []byte { return appendMats(packed, dst, ms) }

// AppendAlignedMats is AppendMats in the push layout (see layout): every
// body lands on a 64-byte boundary of dst's buffer.
func AppendAlignedMats[T Float](dst []byte, ms []*Matrix[T]) []byte {
	return appendMats(aligned, dst, ms)
}

func appendMats[T Float](l layout, dst []byte, ms []*Matrix[T]) []byte {
	dst = l.appendCount(slices.Grow(dst, matsSize(l, ms, len(dst))), len(ms))
	for _, m := range ms {
		dst = l.appendHeader(dst, m.Rows, m.Cols)
		at := len(dst)
		dst = dst[:at+8*len(m.Data)]
		floatsTo(dst[at:], m.Data)
	}
	return dst
}

// AlignMats appends to dst the push layout of data, a whole sequence in
// the file layout: the same matrices, their bodies copied byte for byte.
// data is validated in full first: on error nothing is written.
func AlignMats(dst, data []byte) ([]byte, error) {
	n, rest, err := packed.splitCount(data)
	for i := 0; i < n && err == nil; i++ {
		_, _, _, rest, err = packed.splitMat(rest)
	}
	if err == nil && len(rest.b) != 0 {
		err = fmt.Errorf("tensor: %d trailing bytes after the matrices", len(rest.b))
	}
	if err != nil {
		return nil, err
	}
	dst = aligned.appendCount(slices.Grow(dst, len(data)+4+aligned.align*n), n)
	for _, rest, _ = packed.splitCount(data); n > 0; n-- {
		rows, cols, body, after, _ := packed.splitMat(rest)
		dst, rest = append(aligned.appendHeader(dst, rows, cols), body...), after
	}
	return dst, nil
}

// copyCodec selects the copy codec: on a little-endian host a float64's
// memory is its wire encoding, so float64 elements encode and decode as
// one copy through the slice viewed as bytes. Float32 widening and
// big-endian hosts run the per-element loops, which stay as the oracle the
// tests hold the copy to. The platform sets it, nothing else.
var copyCodec = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views s, whose elements must be 8 bytes wide, as its len(s)·8
// bytes of memory. The other way round, bytes viewed as floats, is
// viewFloats, which checks the alignment first.
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

// tail is the unread rest of a sequence and its offset past a boundary.
type tail struct {
	b   []byte
	off int
}

// splitCount splits the count, and the aligned layout's phase, off the
// front of data. Every matrix takes at least a header, which bounds a
// plausible count by the input.
func (l layout) splitCount(data []byte) (n int, rest tail, err error) {
	if len(data) < l.countSize {
		return 0, tail{}, errors.New("tensor: truncated matrix count")
	}
	count, rest := binary.LittleEndian.Uint32(data), tail{data[l.countSize:], l.countSize}
	if l == aligned {
		phase := binary.LittleEndian.Uint32(data[4:])
		if phase >= uint32(l.align) {
			return 0, tail{}, fmt.Errorf("tensor: sequence phase %d is not below %d", phase, l.align)
		}
		rest.off += int(phase)
	}
	if uint64(count) > uint64(len(rest.b)/matHeaderSize) {
		return 0, tail{}, fmt.Errorf("tensor: matrix count %d exceeds the %d bytes that follow", count, len(rest.b))
	}
	return int(count), rest, nil
}

// splitMat parses the matrix at the front of t into its shape, its
// encoded elements and what follows it. A declared size beyond the input
// is rejected here, before anything is allocated for it.
func (l layout) splitMat(t tail) (rows, cols int, body []byte, rest tail, err error) {
	h := matHeaderSize + l.pad(t.off+matHeaderSize)
	data := t.b
	if len(data) < h {
		return 0, 0, nil, tail{}, errors.New("tensor: truncated matrix header")
	}
	if binary.LittleEndian.Uint32(data) != matMagic {
		return 0, 0, nil, tail{}, errors.New("tensor: bad matrix magic")
	}
	if string(data[matHeaderSize:h]) != string(zeros[:h-matHeaderSize]) {
		return 0, 0, nil, tail{}, errors.New("tensor: nonzero padding after a matrix header")
	}
	r, c := binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
	data = data[h:]
	if uint64(r)*uint64(c) > uint64(len(data))/8 {
		return 0, 0, nil, tail{}, fmt.Errorf("tensor: %d×%d matrix exceeds the %d bytes that follow", r, c, len(data))
	}
	n := 8 * int(r) * int(c)
	return int(r), int(c), data[:n], tail{data[n:], t.off + h + n}, nil
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
	n, t, err := packed.splitCount(data)
	if err != nil {
		return nil, nil, err
	}
	ms = make([]*Mat, n)
	for i := range ms {
		rows, cols, body, after, err := packed.splitMat(t)
		if err != nil {
			return nil, nil, err
		}
		ms[i] = New(rows, cols)
		floatsFrom(ms[i].Data, body)
		t = after
	}
	return ms, t.b, nil
}

// DecodeMatsInto overwrites dst with the sequence encoded in data, which
// must hold exactly len(dst) matrices of dst's shapes and nothing else.
// Everything is validated before the first store: on error dst is
// untouched.
func DecodeMatsInto[T Float](dst []*Matrix[T], data []byte) error {
	return intoBodies(packed, dst, data, func(m *Matrix[T], body []byte) { floatsFrom(m.Data, body) })
}

// ViewMatsInto is DecodeMatsInto for an AppendAlignedMats sequence that
// points each matrix's Data into data instead of copying: data must then
// outlive dst's use of it and not change meanwhile. Where the bytes are
// not the elements' memory — a big-endian host, float32 elements, a
// misaligned body — the matrix gets a fresh decoded copy. Every check
// runs before the first matrix moves: on error dst is untouched.
func ViewMatsInto[T Float](dst []*Matrix[T], data []byte) error {
	return intoBodies(aligned, dst, data, func(m *Matrix[T], body []byte) { m.Data = viewFloats[T](body) })
}

// intoBodies validates data as the l encoding of exactly len(dst) matrices
// of dst's shapes and nothing else; only then does it hand each matrix and
// its encoded elements to store, in order.
func intoBodies[T Float](l layout, dst []*Matrix[T], data []byte, store func(*Matrix[T], []byte)) error {
	n, rest, err := l.splitCount(data)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("tensor: %d encoded matrices, want %d", n, len(dst))
	}
	for i, m := range dst {
		rows, cols, _, after, err := l.splitMat(rest)
		if err != nil {
			return err
		}
		if rows != m.Rows || cols != m.Cols {
			return fmt.Errorf("tensor: encoded matrix %d has shape %d×%d, want %d×%d", i, rows, cols, m.Rows, m.Cols)
		}
		rest = after
	}
	if len(rest.b) != 0 {
		return fmt.Errorf("tensor: %d trailing bytes after the matrices", len(rest.b))
	}
	_, rest, _ = l.splitCount(data)
	for _, m := range dst {
		_, _, body, after, _ := l.splitMat(rest)
		store(m, body)
		rest = after
	}
	return nil
}

// viewFloats returns the elements encoded in body: body itself viewed as
// []T where its memory already is their encoding — a little-endian host,
// 8-byte elements, an 8-aligned start — else a fresh decoded copy.
func viewFloats[T Float](body []byte) []T {
	var zero T
	p := unsafe.Pointer(unsafe.SliceData(body))
	if len(body) > 0 && copyCodec && unsafe.Sizeof(zero) == 8 && uintptr(p)%8 == 0 {
		return unsafe.Slice((*T)(p), len(body)/8)
	}
	out := make([]T, len(body)/8)
	floatsFrom(out, body)
	return out
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
