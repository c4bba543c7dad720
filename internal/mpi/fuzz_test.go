package mpi

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeFloats asserts the float payload decoder of Reduce/Allreduce
// never panics, accepts exactly the payloads whose length is a multiple
// of 8, and is the inverse of EncodeFloats bit for bit — NaN payloads and
// signed zeros included.
func FuzzDecodeFloats(f *testing.F) {
	valid := EncodeFloats([]float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-value
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs, err := DecodeFloats(data)
		if (err == nil) != (len(data)%8 == 0) {
			t.Fatalf("%d-byte payload: err = %v", len(data), err)
		}
		if err != nil {
			return
		}
		if len(xs) != len(data)/8 {
			t.Fatalf("%d bytes decoded to %d floats", len(data), len(xs))
		}
		if back := EncodeFloats(xs); !bytes.Equal(back, data) {
			t.Fatalf("round trip changed the payload:\n%x\n%x", data, back)
		}
	})
}
