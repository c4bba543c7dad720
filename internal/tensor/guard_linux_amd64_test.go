package tensor

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// TestFetchPastGuardPage runs MatMulInto and MatMulT1Into, the families
// whose leaf reads b where the caller put it, with b's last row ending
// where an inaccessible page begins, so the leaf's prefetch of the tile
// after the last one points into that page. A prefetch never faults and
// loads nothing the result depends on: each product must equal the Go
// loop to the bit on every leaf tier, at both widths.
func TestFetchPastGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	eachLeafTier(t, func(t *testing.T) {
		t.Run("float64", func(t *testing.T) { testFetchPastGuard[float64](t, mem[:page]) })
		t.Run("float32", func(t *testing.T) { testFetchPastGuard[float32](t, mem[:page]) })
	})
}

// testFetchPastGuard places a k×n b, two register tiles wide, at the end of
// page and multiplies a (blockMR+1)×k a by it: a whole row tile and a
// leftover row.
func testFetchPastGuard[F Float](t *testing.T, page []byte) {
	size := int(unsafe.Sizeof(F(0)))
	n := 2 * blockNR[F]()
	k := min(kernelKC+3, len(page)/(n*size))
	all := unsafe.Slice((*F)(unsafe.Pointer(unsafe.SliceData(page))), len(page)/size)
	b := FromSlice(k, n, all[len(all)-k*n:])
	rng := NewRNG(31)
	for i := range b.Data {
		b.Data[i] = F(rng.NormFloat64())
	}
	a := new(Matrix[F]).Resize(blockMR+1, k)
	for i := range a.Data {
		a.Data[i] = F(rng.NormFloat64())
	}
	want := new(Matrix[F]).Resize(a.Rows, n)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < n; j++ {
			var s F
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			want.Set(i, j, s)
		}
	}
	name := fmt.Sprintf("%d×%d·%d×%d at the guard page", a.Rows, k, k, n)
	requireSameBits(t, "MatMulInto "+name, MatMulInto(new(Matrix[F]), a, b).Data, want.Data)
	at := new(Matrix[F]).Resize(k, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for kk := 0; kk < k; kk++ {
			at.Set(kk, i, a.At(i, kk))
		}
	}
	requireSameBits(t, "MatMulT1Into "+name, MatMulT1Into(new(Matrix[F]), at, b).Data, want.Data)
}
