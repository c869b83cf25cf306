package tensor

import (
	"fmt"
	"math"
)

// binaryCheck panics unless a, b and dst all have the same element count.
func binaryCheck(op string, dst, a, b *Tensor) {
	if len(a.data) != len(b.data) || len(dst.data) != len(a.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch dst=%v a=%v b=%v", op, dst.shape, a.shape, b.shape))
	}
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	binaryCheck("AddInto", dst, a, b)
	for i, av := range a.data {
		dst.data[i] = av + b.data[i]
	}
}

// Add returns a + b elementwise as a new tensor shaped like a.
func Add(a, b *Tensor) *Tensor {
	dst := New(a.shape...)
	AddInto(dst, a, b)
	return dst
}

// MulInto computes dst = a * b elementwise (Hadamard). dst may alias a or b.
func MulInto(dst, a, b *Tensor) {
	binaryCheck("MulInto", dst, a, b)
	for i, av := range a.data {
		dst.data[i] = av * b.data[i]
	}
}

// Scale multiplies every element of t by s in place.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Axpy computes t += alpha*x in place (same element counts required).
func (t *Tensor) Axpy(alpha float64, x *Tensor) {
	if len(t.data) != len(x.data) {
		panic(fmt.Sprintf("tensor: Axpy size mismatch %v vs %v", t.shape, x.shape))
	}
	for i, xv := range x.data {
		t.data[i] += alpha * xv
	}
}

// Apply replaces every element v of t with f(v), in place, and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty tensor).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Norm2 returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgmaxRow returns, for each row of a rank-2 tensor, the column index of
// its maximum element.
func (t *Tensor) ArgmaxRow() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRow on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		best, bestIdx := math.Inf(-1), 0
		for c, v := range row {
			if v > best {
				best, bestIdx = v, c
			}
		}
		out[r] = bestIdx
	}
	return out
}

// SumRowsInto accumulates the column sums of a rank-2 tensor into dst,
// which must be a vector of length cols. dst is overwritten.
func SumRowsInto(dst *Tensor, a *Tensor) {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRowsInto on rank-%d tensor", len(a.shape)))
	}
	rows, cols := a.shape[0], a.shape[1]
	if len(dst.data) != cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst length %d != cols %d", len(dst.data), cols))
	}
	dst.Zero()
	for r := 0; r < rows; r++ {
		row := a.data[r*cols : (r+1)*cols]
		for c, v := range row {
			dst.data[c] += v
		}
	}
}

// AddRowVec adds vector v (length cols) to every row of a rank-2 tensor
// in place.
func (t *Tensor) AddRowVec(v *Tensor) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowVec on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	if len(v.data) != cols {
		panic(fmt.Sprintf("tensor: AddRowVec vector length %d != cols %d", len(v.data), cols))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] += v.data[c]
		}
	}
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func (t *Tensor) Transpose2D() *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

// ApproxEqual reports whether t and o are elementwise equal within tol.
func ApproxEqual(a, b *Tensor, tol float64) bool {
	if len(a.data) != len(b.data) {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}
