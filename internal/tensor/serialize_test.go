package tensor

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestMatsRoundTrip(t *testing.T) {
	rng := NewRNG(3)
	special := randMat(7, 13, rng)
	special.Set(0, 0, math.Inf(1))
	special.Set(0, 1, math.Copysign(0, -1))
	special.Set(0, 2, math.NaN())
	ms := []*Mat{randMat(2, 3, rng), special, randMat(1, 1, rng), New(0, 5)}
	enc := AppendMats([]byte("prefix"), ms)
	if len(enc) != len("prefix")+MatsSize(ms) {
		t.Fatalf("encoded %d bytes, MatsSize says %d", len(enc)-len("prefix"), MatsSize(ms))
	}
	got, rest, err := DecodeMats(append(enc[len("prefix"):], "tail"...))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "tail" {
		t.Fatalf("rest = %q, want the bytes after the sequence", rest)
	}
	if len(got) != len(ms) {
		t.Fatalf("decoded %d matrices, want %d", len(got), len(ms))
	}
	for i := range ms {
		if got[i].Rows != ms[i].Rows || got[i].Cols != ms[i].Cols {
			t.Fatalf("matrix %d shape mismatch", i)
		}
		for j, v := range ms[i].Data {
			if math.Float64bits(got[i].Data[j]) != math.Float64bits(v) {
				t.Fatalf("matrix %d element %d: bits differ", i, j)
			}
		}
	}
}

func TestAppendMatsGrowsOnce(t *testing.T) {
	ms := []*Mat{randMat(16, 16, NewRNG(1)), randMat(1, 16, NewRNG(2))}
	buf := make([]byte, 0, MatsSize(ms))
	out := AppendMats(buf, ms)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendMats reallocated a buffer that was already large enough")
	}
}

func TestDecodeMatsZeroCount(t *testing.T) {
	got, rest, err := DecodeMats(AppendMats[float64](nil, nil))
	if err != nil || len(got) != 0 || len(rest) != 0 {
		t.Fatalf("got %d matrices, %d rest bytes, err %v", len(got), len(rest), err)
	}
}

// TestDecodeMatsRejects covers every malformed shape of input for both
// decoders: neither may accept it and DecodeMatsInto must not have stored
// anything by the time it refuses.
func TestDecodeMatsRejects(t *testing.T) {
	shape := func() []*Mat { return []*Mat{New(2, 3), New(1, 3)} }
	src := []*Mat{randMat(2, 3, NewRNG(4)), randMat(1, 3, NewRNG(5))}
	good := AppendMats(nil, src)
	patch := func(at int, v byte) []byte {
		b := bytes.Clone(good)
		b[at] = v
		return b
	}
	secondHeader := 4 + matHeaderSize + 8*6
	cases := map[string][]byte{
		"empty":             nil,
		"short count":       good[:3],
		"count beyond data": patch(0, 200),
		"bad first magic":   patch(4, 0),
		"bad second magic":  patch(secondHeader, 0),
		"huge second shape": append(bytes.Clone(good[:secondHeader+4]), bytes.Repeat([]byte{0xff}, 8)...),
		"truncated body":    good[:len(good)-5],
		"truncated header":  good[:secondHeader+7],
	}
	for name, data := range cases {
		if _, _, err := DecodeMats(data); err == nil {
			t.Errorf("DecodeMats accepted %s", name)
		}
	}
	cases["second shape differs"] = AppendMats(nil, []*Mat{src[0], randMat(3, 1, NewRNG(6))})
	cases["one matrix short"] = AppendMats(nil, src[:1])
	cases["trailing byte"] = append(bytes.Clone(good), 0)
	for name, data := range cases {
		dst := shape()
		if err := DecodeMatsInto(dst, data); err == nil {
			t.Errorf("DecodeMatsInto accepted %s", name)
		}
		for i, m := range dst {
			for _, v := range m.Data {
				if v != 0 {
					t.Fatalf("%s: matrix %d was written before the blob was rejected", name, i)
				}
			}
		}
	}
	dst := shape()
	if err := DecodeMatsInto(dst, good); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !dst[i].Equal(src[i]) {
			t.Fatalf("matrix %d mismatch after DecodeMatsInto", i)
		}
	}
}

func TestQuickMatsRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		ms := make([]*Mat, r.Intn(4))
		for i := range ms {
			ms[i] = randMat(r.Intn(6), 1+r.Intn(6), r)
		}
		enc := AppendMats(nil, ms)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := DecodeMats(enc[:cut]); err == nil {
				return false // every strict prefix is truncated somewhere
			}
		}
		got, rest, err := DecodeMats(enc)
		if err != nil || len(rest) != 0 || len(got) != len(ms) {
			return false
		}
		for i := range ms {
			if !got[i].Equal(ms[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// eachCodec runs f under the copy codec, where the host has it, and under
// the per-element loops the copy is held to.
func eachCodec(t *testing.T, f func(t *testing.T)) {
	native := copyCodec
	defer func() { copyCodec = native }()
	t.Run("copy", func(t *testing.T) {
		if !native {
			t.Skip("big-endian host: no copy codec")
		}
		f(t)
	})
	copyCodec = false
	t.Run("loop", f)
}

// TestCodecPathsAgree: both codecs write the same bytes and decode them
// back bit for bit — signed zeros, denormals, infinities and NaN payloads
// included — from matrices that start at unaligned offsets, and float32
// matrices widen exactly on either path.
func TestCodecPathsAgree(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1030,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff8000000000abc), math.MaxFloat64, -1.5}
	ms := []*Mat{FromSlice(1, len(specials), specials), randMat(5, 7, NewRNG(8)), New(0, 3), randMat(1, 3, NewRNG(9))}
	ms32 := []*Mat32{Narrow(ms[1]), Narrow(ms[3])}
	native := copyCodec
	copyCodec = false
	want, want32 := AppendMats(nil, ms), AppendMats(nil, ms32)
	copyCodec = native
	sameBits := func(t *testing.T, got []*Mat) {
		t.Helper()
		for i, m := range got {
			for j, v := range m.Data {
				if math.Float64bits(v) != math.Float64bits(ms[i].Data[j]) {
					t.Fatalf("matrix %d element %d: bits %x, want %x", i, j, math.Float64bits(v), math.Float64bits(ms[i].Data[j]))
				}
			}
		}
	}
	eachCodec(t, func(t *testing.T) {
		if !bytes.Equal(AppendMats(nil, ms), want) || !bytes.Equal(AppendMats(nil, ms32), want32) {
			t.Fatal("encodings differ between the codecs")
		}
		// Three bytes of prefix put every matrix body off 8-byte alignment.
		odd := append(make([]byte, 3, 3+len(want)), want...)[3:]
		got, _, err := DecodeMats(odd)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, got)
		into := []*Mat{New(1, len(specials)), New(5, 7), New(0, 3), New(1, 3)}
		if err := DecodeMatsInto(into, odd); err != nil {
			t.Fatal(err)
		}
		sameBits(t, into)
		into32 := []*Mat32{Narrow(New(5, 7)), Narrow(New(1, 3))}
		if err := DecodeMatsInto(into32, want32); err != nil {
			t.Fatal(err)
		}
		for i, m := range into32 {
			if !m.Equal(ms32[i]) {
				t.Fatalf("float32 matrix %d did not survive the round trip", i)
			}
		}
	})
}
