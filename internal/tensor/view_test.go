package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// alignedCopy returns data copied skew bytes past a 64-byte boundary.
func alignedCopy(data []byte, skew int) []byte {
	words := make([]uint64, (skew+len(data))/8+9)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	buf = buf[(64-uintptr(unsafe.Pointer(&words[0]))%64)%64:]
	return buf[skew : skew+copy(buf[skew:], data)]
}

// phaseOf returns the phase word of a push-layout sequence.
func phaseOf(data []byte) int { return int(binary.LittleEndian.Uint32(data[4:])) }

// shells returns matrices of the given shapes with no storage, as
// nn.NetworkOf.Shell builds them.
func shells[T Float](shapes ...[2]int) []*Matrix[T] {
	ms := make([]*Matrix[T], len(shapes))
	for i, s := range shapes {
		ms[i] = &Matrix[T]{Rows: s[0], Cols: s[1]}
	}
	return ms
}

// viewsInto reports whether every non-empty matrix of ms has its Data in
// data's memory.
func viewsInto[T Float](ms []*Matrix[T], data []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	for _, m := range ms {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(m.Data)))
		if len(m.Data) > 0 && (p < lo || p+8*uintptr(len(m.Data)) > lo+uintptr(len(data))) {
			return false
		}
	}
	return true
}

// TestViewMatsInto: the push layout puts every body on a 64-byte boundary
// of the buffer it was encoded into, wherever in it the sequence starts,
// and a view of an 8-aligned buffer reads the elements in place, bit for
// bit; a misaligned buffer and the per-element codec get a copy of the
// same values, and so do float32 matrices. AlignMats turns the file
// layout into the same bytes AppendAlignedMats writes.
func TestViewMatsInto(t *testing.T) {
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}
	src := []*Mat{randMat(2, 3, NewRNG(1)), FromSlice(1, len(specials), specials), New(0, 5), randMat(3, 1, NewRNG(2))}
	shapes := [][2]int{{2, 3}, {1, len(specials)}, {0, 5}, {3, 1}}
	for _, at := range []int{0, 8, 44, 88} {
		enc := AppendAlignedMats(make([]byte, at), src)
		if len(enc)-at > AlignedMatsSize(src) {
			t.Fatalf("at %d: encoded %d bytes, AlignedMatsSize bounds it by %d", at, len(enc)-at, AlignedMatsSize(src))
		}
		if got, err := AlignMats(make([]byte, at), AppendMats(nil, src)); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("at %d: AlignMats of the file layout differs from AppendAlignedMats (err %v)", at, err)
		}
		buf := alignedCopy(enc, 0)
		dst := shells[float64](shapes...)
		if err := ViewMatsInto(dst, buf[at:]); err != nil {
			t.Fatal(err)
		}
		for i, m := range dst {
			if p := uintptr(unsafe.Pointer(unsafe.SliceData(m.Data))); len(m.Data) > 0 && p%64 != 0 {
				t.Fatalf("at %d: matrix %d's body is %d bytes past a cache line", at, i, p%64)
			}
		}
	}
	enc := AppendAlignedMats(nil, src)
	same := func(t *testing.T, got []*Mat) {
		t.Helper()
		for i, m := range got {
			for j, v := range m.Data {
				if math.Float64bits(v) != math.Float64bits(src[i].Data[j]) {
					t.Fatalf("matrix %d element %d differs", i, j)
				}
			}
		}
	}
	eachCodec(t, func(t *testing.T) {
		for _, skew := range []int{0, 4} {
			data := alignedCopy(enc, skew)
			dst := shells[float64](shapes...)
			if err := ViewMatsInto(dst, data); err != nil {
				t.Fatal(err)
			}
			same(t, dst)
			if want := copyCodec && skew == 0; viewsInto(dst, data) != want {
				t.Fatalf("skew %d, copy codec %v: views the input %v, want %v", skew, copyCodec, !want, want)
			}
		}
		dst32 := shells[float32](shapes...)
		data := alignedCopy(enc, 0)
		if err := ViewMatsInto(dst32, data); err != nil {
			t.Fatal(err)
		}
		if viewsInto(dst32, data) && len(dst32[0].Data) > 0 {
			t.Fatal("float32 matrices view float64 bytes")
		}
		if dst32[0].Data[1] != float32(src[0].Data[1]) {
			t.Fatal("float32 view did not narrow the elements")
		}
	})
}

// FuzzViewMatsInto: a rejected input moves no Data header; an accepted
// one is exactly the push layout of matrices of dst's shapes, which on a
// little-endian host with the input 8-aligned dst views in place, and
// which re-encodes to the input at the input's phase.
func FuzzViewMatsInto(f *testing.F) {
	src := []*Mat{randMat(2, 3, NewRNG(4)), randMat(1, 3, NewRNG(5))}
	good := AppendAlignedMats(nil, src)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(AppendMats(nil, src))
	f.Add(AppendAlignedMats(nil, []*Mat{src[1], src[0]}))
	padded := bytes.Clone(good)
	padded[8+matHeaderSize] = 1 // the padding after the first header
	f.Add(padded)
	f.Add(append(bytes.Clone(good), 0))
	f.Add(AppendAlignedMats(make([]byte, 40), src)[40:])
	f.Fuzz(func(t *testing.T, data []byte) {
		data = alignedCopy(data, 0)
		dst := []*Mat{New(2, 3), New(1, 3)}
		before := []Mat{*dst[0], *dst[1]}
		if err := ViewMatsInto(dst, data); err != nil {
			for i, m := range dst {
				if unsafe.SliceData(m.Data) != unsafe.SliceData(before[i].Data) || len(m.Data) != len(before[i].Data) {
					t.Fatalf("rejected input (%v) moved matrix %d", err, i)
				}
			}
			return
		}
		if copyCodec && !viewsInto(dst, data) {
			t.Fatal("an accepted aligned input was copied, not viewed")
		}
		if phase := phaseOf(data); !bytes.Equal(AppendAlignedMats(make([]byte, phase), dst)[phase:], data) {
			t.Fatal("the views do not re-encode to the input")
		}
	})
}
