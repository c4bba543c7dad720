package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceAliases(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, d)
	d[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("FromSlice should alias the provided slice")
	}
}

func TestFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length did not panic")
		}
	}()
	FromSlice(2, 3, []float64{1, 2})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7.5 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias storage")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d][%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(2, 2, []float64{0, 1, 2, 3})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Fatal("Clone must not share storage")
	}
	if !m.Equal(FromSlice(2, 2, []float64{0, 1, 2, 3})) {
		t.Fatalf("original mutated: %v", m)
	}
}

func TestAddScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	if !a.Equal(FromSlice(2, 2, []float64{11, 22, 33, 44})) {
		t.Fatalf("Add: %v", a)
	}
	a.Scale(2)
	if !a.Equal(FromSlice(2, 2, []float64{22, 44, 66, 88})) {
		t.Fatalf("Scale: %v", a)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float64{4, 10, 18})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	a.AddScaled(0.5, b)
	if !a.Equal(FromSlice(1, 3, []float64{6, 12.5, 21})) {
		t.Fatalf("AddScaled: %v", a)
	}
}

func TestAddRowVecBroadcast(t *testing.T) {
	m := New(3, 2)
	v := FromSlice(1, 2, []float64{1, -1})
	m.AddRowVec(v)
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 1 || m.At(i, 1) != -1 {
			t.Fatalf("row %d = %v", i, m.Row(i))
		}
	}
}

func TestAddRowVecBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRowVec with wrong width did not panic")
		}
	}()
	New(2, 3).AddRowVec(New(1, 2))
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(7)
	m := randMat(5, 3, rng)
	tt := m.T().T()
	if !m.Equal(tt) {
		t.Fatal("T(T(m)) != m")
	}
	tr := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose wrong at %d,%d", i, j)
			}
		}
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, -2, 3, -4, 5, -6})
	if got := m.Sum(); got != -3 {
		t.Fatalf("Sum = %v", got)
	}
	if got := m.Mean(); math.Abs(got+0.5) > 1e-15 {
		t.Fatalf("Mean = %v", got)
	}
	if got := m.Max(); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if got := m.Min(); got != -6 {
		t.Fatalf("Min = %v", got)
	}
	want := math.Sqrt(1 + 4 + 9 + 16 + 25 + 36)
	if got := m.Norm2(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Norm2 = %v want %v", got, want)
	}
}

func TestEmptyMatrixReductions(t *testing.T) {
	m := New(0, 3)
	if m.Sum() != 0 || m.Mean() != 0 {
		t.Fatal("empty Sum/Mean should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max of empty matrix did not panic")
		}
	}()
	m.Max()
}

func TestArgmaxRow(t *testing.T) {
	m := FromSlice(2, 4, []float64{0, 5, 2, 5, -3, -1, -2, -9})
	if got := m.ArgmaxRow(0); got != 1 {
		t.Fatalf("ArgmaxRow(0) = %d (first max wins)", got)
	}
	if got := m.ArgmaxRow(1); got != 1 {
		t.Fatalf("ArgmaxRow(1) = %d", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1.0005, 2})
	if !a.ApproxEqual(b, 1e-3) {
		t.Fatal("should be approx equal at 1e-3")
	}
	if a.ApproxEqual(b, 1e-6) {
		t.Fatal("should differ at 1e-6")
	}
	if a.ApproxEqual(New(2, 1), 1) {
		t.Fatal("shape mismatch must not be approx equal")
	}
}

func TestFillZeroCopyFrom(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.Sum() != 12 {
		t.Fatalf("Fill: %v", m)
	}
	o := Full(2, 2, 9)
	m.CopyFrom(o)
	if !m.Equal(o) {
		t.Fatalf("CopyFrom: %v", m)
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatalf("Zero: %v", m)
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice(1, 2, []float64{1, 2})
	if s := small.String(); s == "" || s[0] != 'M' {
		t.Fatalf("String small = %q", s)
	}
	big := New(100, 100)
	if s := big.String(); s != "Mat(100×100)" {
		t.Fatalf("String big = %q", s)
	}
}
