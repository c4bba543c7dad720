package tensor

import (
	"testing"
)

// TestIntoKernelsBitIdentical verifies that a reused destination leaks no
// state: every destination-passing kernel must produce, bit for bit, what
// it produces into a fresh matrix when handed one dirty destination that
// has already held larger and smaller results. Shapes straddle the
// parallel-dispatch threshold.
func TestIntoKernelsBitIdentical(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		rng := NewRNG(42)
		shapes := []struct{ m, k, n int }{
			{50, 50, 60}, // 150k multiply-adds: above parallelThreshold
			{1, 1, 1},
			{16, 16, 16},
			{3, 7, 5},
			{50, 50, 60},
		}
		dst := randMat(7, 9, rng) // dirty, reused across every shape and kernel
		for _, s := range shapes {
			a := randMat(s.m, s.k, rng)
			b := randMat(s.k, s.n, rng)
			at := randMat(s.k, s.m, rng) // for T1: aᵀ×b with a of shape k×m
			bt := randMat(s.n, s.k, rng) // for T2: a×bᵀ with b of shape n×k

			if got, want := MatMulInto(dst, a, b), MatMulInto(new(Mat), a, b); !got.Equal(want) {
				t.Fatalf("MatMulInto into a reused destination differs at %+v", s)
			}
			if got, want := MatMulT1Into(dst, at, b), MatMulT1Into(new(Mat), at, b); !got.Equal(want) {
				t.Fatalf("MatMulT1Into into a reused destination differs at %+v", s)
			}
			if got, want := MatMulT2Into(dst, a, bt), MatMulT2Into(new(Mat), a, bt); !got.Equal(want) {
				t.Fatalf("MatMulT2Into into a reused destination differs at %+v", s)
			}
		}
	})
}

// TestAddMatMulT1IntoZeroStart verifies the fused accumulation matches
// MatMulT1 bit for bit when the destination arrives zeroed, and matches
// compute-then-Add within rounding from a non-zero start.
func TestAddMatMulT1IntoZeroStart(t *testing.T) {
	rng := NewRNG(7)
	a := randMat(9, 6, rng)
	b := randMat(9, 8, rng)

	zeroStart := New(6, 8)
	AddMatMulT1Into(zeroStart, a, b)
	if want := MatMulT1Into(new(Mat), a, b); !zeroStart.Equal(want) {
		t.Fatal("AddMatMulT1Into into zeroed dst differs from MatMulT1")
	}

	acc := randMat(6, 8, rng)
	ref := acc.Clone()
	AddMatMulT1Into(acc, a, b)
	ref.Add(MatMulT1Into(new(Mat), a, b))
	if !acc.ApproxEqual(ref, 1e-12) {
		t.Fatal("AddMatMulT1Into from non-zero start diverges beyond rounding")
	}
}

func TestAddColSumsInto(t *testing.T) {
	rng := NewRNG(8)
	m := randMat(5, 4, rng)
	acc := New(1, 4)
	AddColSumsInto(acc, m)
	for j := 0; j < m.Cols; j++ {
		want := 0.0
		for i := 0; i < m.Rows; i++ {
			want += m.At(i, j)
		}
		if acc.At(0, j) != want {
			t.Fatalf("column %d sum %v, want %v", j, acc.At(0, j), want)
		}
	}
}

func TestResizeReusesCapacity(t *testing.T) {
	m := New(10, 10)
	data := &m.Data[0]
	m.Resize(5, 7)
	if m.Rows != 5 || m.Cols != 7 || len(m.Data) != 35 {
		t.Fatalf("Resize gave %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Fatal("Resize within capacity reallocated")
	}
	m.Resize(20, 20)
	if len(m.Data) != 400 {
		t.Fatalf("Resize growth gave len %d", len(m.Data))
	}
}

func TestIntoKernelsRejectAliasing(t *testing.T) {
	a := New(4, 4)
	cases := map[string]func(){
		"MatMulInto":   func() { MatMulInto(a, a, New(4, 4)) },
		"MatMulT1Into": func() { MatMulT1Into(a, New(4, 4), a) },
		"MatMulT2Into": func() { MatMulT2Into(a, a, a) },
		"AddColSumsInto": func() {
			v := FromSlice(1, 4, a.Data[:4])
			AddColSumsInto(v, a)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted an aliased destination", name)
				}
			}()
			f()
		}()
	}
}

// allocCheck is one steady-state call of an allocation tripwire.
type allocCheck struct {
	kernel string
	f      func()
}

// checkZeroAllocs is the allocation regression tripwire of the
// destination-passing kernels, shared by both element widths: steady-state
// calls must not allocate. Shapes stay below parallelThreshold — under
// -race sync.Pool drops items on purpose, so the pooled dispatch is
// tripwired where -race is skipped (nn's TestDCGANTrainIterationAllocs and
// TestNet32ForwardAllocs).
func checkZeroAllocs(t *testing.T, checks []allocCheck) {
	t.Helper()
	for _, ck := range checks {
		ck.f() // warm capacity
		if allocs := testing.AllocsPerRun(20, ck.f); allocs != 0 {
			t.Errorf("%s: %.0f allocs per run, want 0", ck.kernel, allocs)
		}
	}
}

func TestMatMulIntoZeroAllocs(t *testing.T) {
	eachLeafTier(t, func(t *testing.T) {
		rng := NewRNG(9)
		a := randMat(16, 24, rng)
		b := randMat(24, 16, rng)
		bt := randMat(16, 24, rng)
		dst := New(16, 16)
		dw := New(24, 16)
		colsum := New(1, 24)
		checkZeroAllocs(t, []allocCheck{
			{"MatMulInto", func() { MatMulInto(dst, a, b) }},
			{"MatMulT1Into", func() { MatMulT1Into(dw, a, dst) }},
			{"AddMatMulT1Into", func() { AddMatMulT1Into(dw, a, dst) }},
			{"MatMulT2Into", func() { MatMulT2Into(dst, a, bt) }},
			{"AddColSumsInto", func() { AddColSumsInto(colsum, a) }},
			{"TanhInto", func() { TanhInto(dst.Data, dst.Data) }},
		})
	})
}
