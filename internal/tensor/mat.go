package tensor

import (
	"fmt"
	"math"
)

// Float constrains the matrix element types: float64 is the training
// default, float32 the serving tier where bit-parity with training does
// not matter.
type Float interface{ float32 | float64 }

// Matrix is a dense, row-major matrix. A Matrix with Rows == 1 or
// Cols == 1 doubles as a vector. The zero value is an empty matrix. Every
// method and every destination-passing kernel of the package is written
// once over the element type; Mat and Mat32 are its two instantiations.
//
// Allocation behaviour, for hot-path authors: the constructors (New,
// Eye, Full) and the value-returning operations (Clone, T) allocate a
// fresh result on every call. The in-place
// operations (Add, Scale, AddScaled, AddRowVec, Zero, Fill, CopyFrom) and
// the destination-passing kernels (MatMulInto, MatMulT1Into, MatMulT2Into,
// AddMatMulT1Into, AddColSumsInto, Im2ColInto, AddCol2ImInto, TanhInto)
// do not allocate once the destination has reached its steady-state
// capacity — Resize only reallocates when the requested shape outgrows the
// backing array. Steady-state training and serving loops must use the
// Into forms.
type Matrix[T Float] struct {
	Rows, Cols int
	// Data holds the elements in row-major order; len(Data) == Rows*Cols.
	Data []T
}

// Mat is the float64 matrix all training state lives in. The float64-only
// helpers (constructors, weight initialisers, eigendecomposition) take
// *Mat.
type Mat = Matrix[float64]

// Mat32 is the float32 matrix of the opt-in serving compute tier: halving
// the memory traffic nearly halves the matmul wall-clock on inference
// paths where bit-parity with training explicitly does not matter. It is
// filled from a Mat with Narrow; there is no float32 training.
type Mat32 = Matrix[float32]

// Narrow returns a freshly allocated float32 copy of src — the model-load
// conversion of the serving tier (a copy when src is already float32).
func Narrow[T Float](src *Matrix[T]) *Mat32 {
	dst := new(Mat32).Resize(src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice[T Float](rows, cols int, data []T) *Matrix[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice size mismatch: %d×%d vs %d elements", rows, cols, len(data)))
	}
	return &Matrix[T]{Rows: rows, Cols: cols, Data: data}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Full returns a rows×cols matrix with every element set to v.
func Full(rows, cols int, v float64) *Mat {
	m := New(rows, cols)
	m.Fill(v)
	return m
}

// At returns the element at row i, column j.
func (m *Matrix[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Resize reshapes m to rows×cols in place, reusing the backing array when
// its capacity allows and reallocating otherwise. The element values after
// a Resize are unspecified (destination-passing kernels overwrite them);
// callers that need zeroed storage follow with Zero or Fill. It returns m.
func (m *Matrix[T]) Resize(rows, cols int) *Matrix[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: Resize to negative dimensions %d×%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]T, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix[T]) Clone() *Matrix[T] {
	c := &Matrix[T]{Rows: m.Rows, Cols: m.Cols, Data: make([]T, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; the shapes must match.
func (m *Matrix[T]) CopyFrom(src *Matrix[T]) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Matrix[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

func (m *Matrix[T]) mustSameShape(o *Matrix[T], op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %d×%d vs %d×%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add sets m = m + o element-wise.
func (m *Matrix[T]) Add(o *Matrix[T]) {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Scale sets m = a*m.
func (m *Matrix[T]) Scale(a T) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled sets m = m + a*o (axpy).
func (m *Matrix[T]) AddScaled(a T, o *Matrix[T]) {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += a * v
	}
}

// AddRowVec adds the 1×Cols row vector v to every row of m (broadcast).
func (m *Matrix[T]) AddRowVec(v *Matrix[T]) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec wants 1×%d, got %d×%d", m.Cols, v.Rows, v.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v.Data {
			row[j] += b
		}
	}
}

// T returns a newly allocated transpose of m. Hot paths avoid the
// materialised transpose entirely via the MatMulT1Into/MatMulT2Into kernels.
func (m *Matrix[T]) T() *Matrix[T] {
	t := &Matrix[T]{Rows: m.Cols, Cols: m.Rows, Data: make([]T, len(m.Data))}
	for i := 0; i < m.Rows; i++ {
		base := i * m.Cols
		for j := 0; j < m.Cols; j++ {
			t.Data[j*m.Rows+i] = m.Data[base+j]
		}
	}
	return t
}

// Sum returns the sum of all elements.
func (m *Matrix[T]) Sum() T {
	var s T
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty matrix).
func (m *Matrix[T]) Mean() T {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / T(len(m.Data))
}

// Max returns the maximum element; it panics on an empty matrix.
func (m *Matrix[T]) Max() T {
	if len(m.Data) == 0 {
		panic("tensor: Max of empty matrix")
	}
	mx := m.Data[0]
	for _, v := range m.Data[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Min returns the minimum element; it panics on an empty matrix.
func (m *Matrix[T]) Min() T {
	if len(m.Data) == 0 {
		panic("tensor: Min of empty matrix")
	}
	mn := m.Data[0]
	for _, v := range m.Data[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix[T]) Norm2() float64 {
	var s T
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(float64(s))
}

// ArgmaxRow returns the column index of the maximum element of row i.
func (m *Matrix[T]) ArgmaxRow(i int) int {
	row := m.Row(i)
	best := 0
	for j, x := range row {
		if x > row[best] {
			best = j
		}
	}
	return best
}

// Equal reports whether m and o have the same shape and identical elements.
func (m *Matrix[T]) Equal(o *Matrix[T]) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, x := range m.Data {
		if x != o.Data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and o have the same shape and all elements
// within tol of each other.
func (m *Matrix[T]) ApproxEqual(o *Matrix[T], tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, x := range m.Data {
		if math.Abs(float64(x-o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact, human-readable form of small matrices.
func (m *Matrix[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Mat(%d×%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Mat(%d×%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
