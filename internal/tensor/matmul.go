package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// parallelThreshold is the minimum number of multiply-adds below which
// the matmul kernels run serially; parallel dispatch costs more than it saves on
// small products.
const parallelThreshold = 64 * 1024

// rangeTask is the allocation-free internal form of a ParallelFor body.
// The hot-path kernels submit pooled task structs implementing run instead
// of fresh closures, so a steady-state parallel dispatch performs zero
// allocations; the public ParallelFor wraps its closure in a funcTask.
type rangeTask interface {
	run(lo, hi int)
}

type funcTask func(lo, hi int)

func (f funcTask) run(lo, hi int) { f(lo, hi) }

// parcel is one chunk of a parallelRun dispatch, handed to the persistent
// worker pool by value.
type parcel struct {
	t      rangeTask
	lo, hi int
	wg     *sync.WaitGroup
}

// poolQueueCap bounds the submission queue. It is independent of the
// worker count so the pool can grow without reallocating the channel; a
// full queue degrades to inline execution in parallelRun, never blocks.
const poolQueueCap = 256

var (
	poolCh = make(chan parcel, poolQueueCap)
	poolMu sync.Mutex
	// poolSize is the number of persistent workers started so far. Read
	// atomically on the dispatch fast path, grown under poolMu.
	poolSize atomic.Int32
	wgPool   = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// workerPool returns the submission channel, first growing the persistent
// worker set to the current GOMAXPROCS when it lags behind — GOMAXPROCS is
// commonly raised after the pool's first use (tests, benchmarks), and a
// pool pinned to the first-use value would under-serve the chunk math in
// parallelRun, which re-reads GOMAXPROCS per call. Lowering GOMAXPROCS
// leaves surplus workers parked on the channel; parallelRun already clamps
// per-dispatch parallelism to the current value, so surplus workers only
// cost idle goroutines, never extra concurrency. Spawning goroutines per
// dispatch would allocate on every matmul; the persistent pool keeps the
// steady-state training iteration allocation-free.
func workerPool() chan parcel {
	n := int32(runtime.GOMAXPROCS(0))
	if poolSize.Load() >= n {
		return poolCh
	}
	poolMu.Lock()
	for poolSize.Load() < n {
		go func() {
			for p := range poolCh {
				p.t.run(p.lo, p.hi)
				p.wg.Done()
			}
		}()
		poolSize.Add(1)
	}
	poolMu.Unlock()
	return poolCh
}

// ParallelFor executes f(lo, hi) over disjoint chunks of [0, n) using up to
// GOMAXPROCS workers. It runs f(0, n) inline when n is small or only one
// worker is available. The chunk decomposition is deterministic, so
// numerically order-sensitive reductions inside a chunk stay reproducible.
func ParallelFor(n int, minChunk int, f func(lo, hi int)) {
	parallelRun(n, minChunk, 1, funcTask(f))
}

// parallelRun is ParallelFor over a rangeTask, with every chunk but the
// last a multiple of align indices. The submitting goroutine always runs
// the first chunk itself; the rest go to the worker pool. A full queue
// (deeply concurrent dispatch) degrades to running chunks inline rather
// than blocking, which also keeps nested dispatches deadlock-free.
func parallelRun(n, minChunk, align int, t rangeTask) {
	workers := runtime.GOMAXPROCS(0)
	if minChunk < 1 {
		minChunk = 1
	}
	if workers <= 1 || n <= minChunk {
		if n > 0 {
			t.run(0, n)
		}
		return
	}
	if max := (n + minChunk - 1) / minChunk; workers > max {
		workers = max
	}
	chunk := min(n, ((n+workers-1)/workers+align-1)/align*align)
	ch := workerPool()
	wg := wgPool.Get().(*sync.WaitGroup)
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case ch <- parcel{t: t, lo: lo, hi: hi, wg: wg}:
		default:
			t.run(lo, hi)
			wg.Done()
		}
	}
	t.run(0, chunk)
	wg.Wait()
	wgPool.Put(wg)
}

// mustNotShareData panics when dst's backing array overlaps a source
// operand's in any element — whole-matrix aliasing or partially
// overlapping FromSlice views of one array. Destination-passing kernels
// read their sources while writing dst, so any overlap would silently
// corrupt the result.
func mustNotShareData[T Float](op string, dst *Matrix[T], srcs ...*Matrix[T]) {
	for _, s := range srcs {
		if s == dst || slicesOverlap(dst.Data, s.Data) {
			panic("tensor: " + op + " destination aliases a source operand")
		}
	}
}

// kernelOp names the kernel family a kernelTask runs.
type kernelOp uint8

const (
	opMatMul kernelOp = iota
	opMatMulT1
	opMatMulT2
	opIm2Col
	opCol2Im
)

// kernelTask is the pooled dispatch header of every parallel kernel: the
// operands of one call plus the family selector, so a parallel dispatch
// reuses a recycled struct instead of allocating a closure. c is the
// destination; a and b are the sources (b unused by the gather/scatter
// pair, g used only by it).
type kernelTask[T Float] struct {
	op      kernelOp
	c, a, b *Matrix[T]
	zero    bool
	g       convGeom
}

func (t *kernelTask[T]) run(lo, hi int) {
	switch t.op {
	case opMatMul:
		matMulKernel(t.c.Data, t.a.Data, t.b.Data, t.a.Cols, t.a.Cols, 1, t.b.Cols, t.zero, lo, hi)
	case opMatMulT1:
		matMulKernel(t.c.Data, t.a.Data, t.b.Data, t.a.Rows, 1, t.a.Cols, t.b.Cols, t.zero, lo, hi)
	case opMatMulT2:
		matMulT2Kernel(t.c.Data, t.a.Data, t.b.Data, t.a.Rows, t.a.Cols, t.b.Rows, lo, hi)
	case opIm2Col:
		lowerKernel(t.a.Data, t.c.Data, t.a.Cols, t.c.Cols, t.g, lo, hi, false)
	case opCol2Im:
		lowerKernel(t.c.Data, t.a.Data, t.c.Cols, t.a.Cols, t.g, lo, hi, true)
	}
}

// taskPools recycles kernelTask headers, indexed by elemIndex: a
// sync.Pool cannot be generic, so each element type gets its own slot,
// picked without allocating.
var taskPools [2]sync.Pool

// elemIndex returns 0 for float64 and 1 for float32.
func elemIndex[T Float]() int {
	var z T
	if unsafe.Sizeof(z) == 4 {
		return 1
	}
	return 0
}

// dispatch runs t over [0, n), where every index costs perIndex
// multiply-adds (or element moves): serially below parallelThreshold,
// otherwise through a pooled copy of t on the worker pool, in chunks of a
// multiple of blockMR indices — whole register tiles where an index is a
// row of c.
func dispatch[T Float](t kernelTask[T], n, perIndex int) {
	if n == 0 {
		return // nothing to compute; the kernels slice past row lo of an empty c
	}
	if n*perIndex < parallelThreshold {
		t.run(0, n)
		return
	}
	pool := &taskPools[elemIndex[T]()]
	p, _ := pool.Get().(*kernelTask[T])
	if p == nil {
		p = new(kernelTask[T])
	}
	*p = t
	parallelRun(n, parallelThreshold/(perIndex+1)+1, blockMR, p)
	*p = kernelTask[T]{}
	pool.Put(p)
}

// MatMulInto computes dst = a × b, resizing dst as needed and reusing its
// backing storage when the capacity allows. It parallelises across rows of
// a for large products. dst must not alias a or b. It returns dst.
func MatMulInto[T Float](dst, a, b *Matrix[T]) *Matrix[T] {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Resize(a.Rows, b.Cols)
	mustNotShareData("MatMulInto", dst, a, b)
	dispatch(kernelTask[T]{op: opMatMul, c: dst, a: a, b: b, zero: true}, a.Rows, a.Cols*b.Cols)
	return dst
}

// MatMulT1Into computes dst = aᵀ × b (c[i][j] = Σ_k a[k][i]·b[k][j])
// without materialising the transpose of a, resizing dst as needed. dst must not alias a or b. It returns dst.
func MatMulT1Into[T Float](dst, a, b *Matrix[T]) *Matrix[T] {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1Into dimension mismatch %d×%d ᵀ· %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Resize(a.Cols, b.Cols)
	mustNotShareData("MatMulT1Into", dst, a, b)
	dispatch(kernelTask[T]{op: opMatMulT1, c: dst, a: a, b: b, zero: true}, a.Cols, a.Rows*b.Cols)
	return dst
}

// AddMatMulT1Into computes dst += aᵀ × b without a temporary — the fused
// gradient accumulation dW += xᵀ·grad of Linear.Backward. dst must already
// have shape a.Cols×b.Cols and must not alias a or b. When dst arrives
// zeroed the result is bit-identical to MatMulT1Into (every partial sum
// matches); from a non-zero start the accumulation order differs from
// compute-then-Add by at most one rounding per element, deterministically.
func AddMatMulT1Into[T Float](dst, a, b *Matrix[T]) *Matrix[T] {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: AddMatMulT1Into dimension mismatch %d×%d ᵀ· %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulT1Into destination %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	mustNotShareData("AddMatMulT1Into", dst, a, b)
	dispatch(kernelTask[T]{op: opMatMulT1, c: dst, a: a, b: b}, a.Cols, a.Rows*b.Cols)
	return dst
}

// MatMulT2Into computes dst = a × bᵀ without materialising the transpose
// of b, resizing dst as needed. Every
// element is a full dot product written once, so no zeroing pass is
// needed. dst must not alias a or b. It returns dst.
func MatMulT2Into[T Float](dst, a, b *Matrix[T]) *Matrix[T] {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2Into dimension mismatch %d×%d · %d×%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Resize(a.Rows, b.Rows)
	mustNotShareData("MatMulT2Into", dst, a, b)
	nr := blockNR[T]()
	dispatch(kernelTask[T]{op: opMatMulT2, c: dst, a: a, b: b}, (b.Rows+nr-1)/nr, a.Rows*a.Cols*nr)
	return dst
}

// AddColSumsInto accumulates the per-column sums of m into dst — the fused
// dB += colsums(grad) of Linear.Backward. dst must have shape 1×m.Cols and
// must not alias m.
func AddColSumsInto[T Float](dst, m *Matrix[T]) *Matrix[T] {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddColSumsInto destination %d×%d, want 1×%d", dst.Rows, dst.Cols, m.Cols))
	}
	mustNotShareData("AddColSumsInto", dst, m)
	for i := 0; i < m.Rows; i++ {
		for j, x := range m.Row(i) {
			dst.Data[j] += x
		}
	}
	return dst
}
