package mpi

import (
	"bytes"
	"testing"
)

// FuzzUnpackParts asserts the wire decoder of Allgather (and so of Split)
// never panics, and that whatever it accepts is exactly what packParts
// would frame: the declared part count, every part whole, no bytes left.
// The expected count is a communicator size, so the fuzzer draws it from
// a byte.
func FuzzUnpackParts(f *testing.F) {
	valid := packParts([][]byte{[]byte("a"), nil, []byte("ccc")})
	f.Add(valid, uint8(3))
	f.Add(valid[:6], uint8(3))           // truncated part header
	f.Add(valid, uint8(2))               // count mismatch
	f.Add(append(valid, 0xAB), uint8(3)) // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		want := int(n)
		parts, err := unpackParts(data, want)
		if err != nil {
			return
		}
		if len(parts) != want {
			t.Fatalf("accepted %d parts, want %d", len(parts), want)
		}
		for i, p := range parts {
			if len(p) != cap(p) {
				t.Fatalf("part %d: len %d, cap %d: not clipped", i, len(p), cap(p))
			}
		}
		if back := packParts(parts); !bytes.Equal(back, data) {
			t.Fatalf("round trip changed the payload:\n%x\n%x", data, back)
		}
	})
}
