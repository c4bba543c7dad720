package tensor

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatRoundTrip(t *testing.T) {
	rng := NewRNG(1)
	m := randMat(7, 13, rng)
	m.Set(0, 0, math.Inf(1))
	m.Set(0, 1, -0.0)
	var buf bytes.Buffer
	if _, err := WriteMat(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round trip mismatch")
	}
}

func TestMatRoundTripNaN(t *testing.T) {
	m := FromSlice(1, 2, []float64{math.NaN(), 1})
	var buf bytes.Buffer
	if _, err := WriteMat(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Data[0]) || got.Data[1] != 1 {
		t.Fatalf("NaN round trip: %v", got.Data)
	}
}

func TestReadMatBadMagic(t *testing.T) {
	if _, err := ReadMat(strings.NewReader("not a matrix header")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadMatTruncated(t *testing.T) {
	m := randMat(4, 4, NewRNG(2))
	var buf bytes.Buffer
	if _, err := WriteMat(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadMat(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestReadMatImplausibleSize(t *testing.T) {
	var buf bytes.Buffer
	huge := &Mat{Rows: 1, Cols: 1, Data: []float64{0}}
	if _, err := WriteMat(&buf, huge); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Overwrite rows/cols with absurd values.
	for i := 4; i < 12; i++ {
		b[i] = 0xff
	}
	if _, err := ReadMat(bytes.NewReader(b)); err == nil {
		t.Fatal("implausible size accepted")
	}
}

func TestEncodeDecodeMats(t *testing.T) {
	rng := NewRNG(3)
	ms := []*Mat{randMat(2, 3, rng), randMat(1, 1, rng), New(0, 5)}
	var buf bytes.Buffer
	if err := EncodeMats(&buf, ms); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ms) {
		t.Fatalf("decoded %d matrices, want %d", len(got), len(ms))
	}
	for i := range ms {
		if !got[i].Equal(ms[i]) {
			t.Fatalf("matrix %d mismatch", i)
		}
	}
}

func TestDecodeMatsEmptyStream(t *testing.T) {
	if _, err := DecodeMats(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestDecodeMatsZeroCount(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeMats(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty, got %d", len(got))
	}
}

func TestQuickMatRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m := randMat(r.Intn(6), 1+r.Intn(6), r)
		var buf bytes.Buffer
		if _, err := WriteMat(&buf, m); err != nil {
			return false
		}
		got, err := ReadMat(&buf)
		return err == nil && got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// failWriter fails after n bytes to exercise write error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteToPropagatesErrors(t *testing.T) {
	m := randMat(4, 4, NewRNG(5))
	if _, err := WriteMat(&failWriter{n: 3}, m); err == nil {
		t.Fatal("header write failure not propagated")
	}
	if _, err := WriteMat(&failWriter{n: 20}, m); err == nil {
		t.Fatal("body write failure not propagated")
	}
	if err := EncodeMats(&failWriter{n: 1}, []*Mat{m}); err == nil {
		t.Fatal("EncodeMats count write failure not propagated")
	}
	if err := EncodeMats(&failWriter{n: 6}, []*Mat{m}); err == nil {
		t.Fatal("EncodeMats body write failure not propagated")
	}
}
