// Package tensor provides dense float64 tensors and the numeric kernels
// (elementwise ops, reductions, parallel GEMM) that the nn package is built
// on. Tensors are row-major and contiguous; Reshape shares underlying data
// while Clone copies it.
//
// The package is deliberately small and allocation-conscious: all hot-path
// operations have *Into variants that write into a caller-supplied
// destination so training loops can reuse buffers.
package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Tensor is a dense, row-major, contiguous float64 tensor.
//
// The zero value is an empty tensor with no shape. Use New, Zeros, or
// FromSlice to construct one.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a tensor with zero total elements is valid.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float64, n)}
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The tensor takes
// ownership of the slice (no copy). It panics if len(data) does not match
// the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), cloneInts(shape), n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// checkShape validates a shape and returns its element count. The panic
// path formats a clone so the shape argument itself provably does not
// escape — this keeps variadic shape slices on callers' stacks across the
// whole hot path.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", cloneInts(shape)))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
// The hot paths in nn use this to avoid per-element bounds checking through
// method calls; external callers should prefer At/Set.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// Reshape returns a view with the given shape sharing t's data. One
// dimension may be -1, in which case it is inferred. It panics if the
// element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = cloneInts(shape)
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: invalid dimension %d in Reshape", d))
		default:
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, known))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Resize reshapes t in place to the given shape, reusing the backing array
// when its capacity suffices and reallocating otherwise. The contents after
// a Resize are unspecified — callers treat the result as uninitialized
// scratch and overwrite (or Zero) it.
//
// Resize must only be used on tensors the caller exclusively owns (layer
// scratch buffers, workspace checkouts) — resizing a tensor that shares
// storage with a view corrupts the view's bounds. It returns t.
func (t *Tensor) Resize(shape ...int) *Tensor {
	n := checkShape(shape)
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = cloneInts(shape)
	}
	if n <= cap(t.data) {
		t.data = t.data[:n]
	} else {
		t.data = make([]float64, n)
	}
	return t
}

// ResizeLike is Resize to o's shape without allocating a shape slice when
// the ranks already match.
func (t *Tensor) ResizeLike(o *Tensor) *Tensor {
	if cap(t.shape) >= len(o.shape) {
		t.shape = t.shape[:len(o.shape)]
		copy(t.shape, o.shape)
	} else {
		t.shape = cloneInts(o.shape)
	}
	n := len(o.data)
	if n <= cap(t.data) {
		t.data = t.data[:n]
	} else {
		t.data = make([]float64, n)
	}
	return t
}

// ViewRows returns a view of rows [from, to) along the leading axis,
// sharing t's storage (no copy). It works for any rank ≥ 1: the result has
// shape [to-from, t.shape[1:]...]. Mutating the view mutates t.
func (t *Tensor) ViewRows(from, to int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: ViewRows on rank-0 tensor")
	}
	if from < 0 || to > t.shape[0] || from > to {
		panic(fmt.Sprintf("tensor: ViewRows[%d:%d] out of range for %v", from, to, t.shape))
	}
	rowSize := 1
	for _, d := range t.shape[1:] {
		rowSize *= d
	}
	shape := cloneInts(t.shape)
	shape[0] = to - from
	return &Tensor{shape: shape, data: t.data[from*rowSize : to*rowSize : to*rowSize]}
}

// GatherRowsInto copies the rows of src selected by idx into consecutive
// rows of dst. Both tensors must be rank-2 with equal column counts, and
// dst must have len(idx) rows. Used by minibatch gathers so training loops
// can reuse one destination buffer across batches.
func GatherRowsInto(dst, src *Tensor, idx []int) {
	if len(dst.shape) != 2 || len(src.shape) != 2 {
		panic(fmt.Sprintf("tensor: GatherRowsInto requires rank-2 tensors, got dst=%v src=%v", dst.shape, src.shape))
	}
	cols := src.shape[1]
	if dst.shape[1] != cols || dst.shape[0] != len(idx) {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst shape %v, want [%d %d]", dst.shape, len(idx), cols))
	}
	for i, r := range idx {
		if r < 0 || r >= src.shape[0] {
			panic(fmt.Sprintf("tensor: GatherRowsInto row index %d out of range for %v", r, src.shape))
		}
		copy(dst.data[i*cols:(i+1)*cols], src.data[r*cols:(r+1)*cols])
	}
}

// BindView rebinds view (allocating a header when view is nil) to data
// with the given shape, without copying — the reusable-header alternative
// to FromSlice for hot paths that view the same storage every call.
func BindView(view *Tensor, data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: BindView data length %d does not match shape %v (%d elements)", len(data), cloneInts(shape), n))
	}
	if view == nil {
		return &Tensor{shape: cloneInts(shape), data: data}
	}
	if cap(view.shape) >= len(shape) {
		view.shape = view.shape[:len(shape)]
		copy(view.shape, shape)
	} else {
		view.shape = cloneInts(shape)
	}
	view.data = data
	return view
}

// ReshapeInto is Reshape writing into a caller-owned view header instead
// of allocating one: view is rebound to t's storage with the given shape
// (one dimension may be -1) and returned. Hot paths keep one header per
// call site so repeated reshapes allocate nothing. Passing view == nil
// falls back to Reshape.
func (t *Tensor) ReshapeInto(view *Tensor, shape ...int) *Tensor {
	if view == nil {
		return t.Reshape(shape...)
	}
	infer := -1
	known := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: ReshapeInto with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: invalid dimension %d in ReshapeInto", d))
		default:
			known *= d
		}
	}
	if cap(view.shape) >= len(shape) {
		view.shape = view.shape[:len(shape)]
		copy(view.shape, shape)
	} else {
		view.shape = cloneInts(shape)
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, cloneInts(shape)))
		}
		view.shape[infer] = len(t.data) / known
		known *= view.shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), cloneInts(shape), known))
	}
	view.data = t.data
	return view
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	data := make([]float64, len(t.data))
	copy(data, t.data)
	return &Tensor{shape: cloneInts(t.shape), data: data}
}

// CopyFrom copies o's data into t. Shapes must have equal element counts.
func (t *Tensor) CopyFrom(o *Tensor) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// offset computes the flat index for the given multi-index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Row returns a view of row i of a rank-2 tensor as a slice (no copy).
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	c := t.shape[1]
	return t.data[i*c : (i+1)*c]
}

// String renders small tensors fully and large ones abbreviated.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(fmt.Sprintf("%v", t.shape))
	b.WriteByte('[')
	limit := len(t.data)
	const maxShown = 16
	if limit > maxShown {
		limit = maxShown
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(t.data[i], 'g', 5, 64))
	}
	if len(t.data) > maxShown {
		b.WriteString(" ...")
	}
	b.WriteByte(']')
	return b.String()
}

// AllFinite reports whether every element is finite (no NaN / ±Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MaxAbs returns the maximum absolute value of any element (0 for empty).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
