package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if got := tt.Len(); got != 24 {
		t.Fatalf("Len() = %d, want 24", got)
	}
	if got := tt.Rank(); got != 3 {
		t.Fatalf("Rank() = %d, want 3", got)
	}
	sh := tt.Shape()
	if sh[0] != 2 || sh[1] != 3 || sh[2] != 4 {
		t.Fatalf("Shape() = %v, want [2 3 4]", sh)
	}
	// Shape() must return a copy, not an alias.
	sh[0] = 99
	if tt.Dim(0) != 2 {
		t.Fatal("Shape() returned an aliased slice")
	}
}

func TestNewZeroSized(t *testing.T) {
	tt := New(0, 5)
	if tt.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tt.Len())
	}
	if got := tt.Sum(); got != 0 {
		t.Fatalf("Sum() = %v, want 0", got)
	}
	if got := tt.Mean(); got != 0 {
		t.Fatalf("Mean() of empty = %v, want 0", got)
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 3)
}

func TestFromSlice(t *testing.T) {
	tt := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := tt.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if got := tt.At(0, 0); got != 1 {
		t.Fatalf("At(0,0) = %v, want 1", got)
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At after Set = %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	tt := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := tt.Reshape(3, 2)
	r.Set(99, 0, 1)
	if got := tt.At(0, 1); got != 99 {
		t.Fatalf("reshape did not share data: At(0,1) = %v, want 99", got)
	}
}

func TestReshapeInfer(t *testing.T) {
	tt := New(4, 6)
	r := tt.Reshape(2, -1)
	if r.Dim(1) != 12 {
		t.Fatalf("inferred dim = %d, want 12", r.Dim(1))
	}
	r2 := tt.Reshape(-1)
	if r2.Rank() != 1 || r2.Dim(0) != 24 {
		t.Fatalf("flatten got shape %v, want [24]", r2.Shape())
	}
}

func TestReshapePanicsOnBadCount(t *testing.T) {
	tt := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	tt.Reshape(4, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestRowIsView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row should be a view, not a copy")
	}
}

func TestSliceRowsIsCopy(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	s := a.SliceRows(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("SliceRows content wrong: %v", s)
	}
	s.Set(99, 0, 0)
	if a.At(1, 0) != 3 {
		t.Fatal("SliceRows must copy, not alias")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add wrong: %v", got)
	}
	d := New(2, 2)
	SubInto(d, b, a)
	if d.Data()[0] != 9 {
		t.Fatalf("SubInto wrong: %v", d.Data())
	}
	MulInto(d, a, b)
	if d.Data()[2] != 90 {
		t.Fatalf("MulInto wrong: %v", d.Data())
	}
}

func TestAddIntoAliasSafe(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	AddInto(a, a, b) // dst aliases a
	want := []float64{5, 7, 9}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("aliased AddInto = %v, want %v", a.Data(), want)
		}
	}
}

func TestScaleAxpyApply(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	a.Scale(2)
	if a.At(2) != 6 {
		t.Fatalf("Scale wrong: %v", a)
	}
	x := FromSlice([]float64{1, 1, 1}, 3)
	a.Axpy(0.5, x)
	if a.At(0) != 2.5 {
		t.Fatalf("Axpy wrong: %v", a)
	}
	a.Apply(func(v float64) float64 { return -v })
	if a.At(0) != -2.5 {
		t.Fatalf("Apply wrong: %v", a)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, -4}, 4)
	if got := a.Sum(); got != -2 {
		t.Fatalf("Sum = %v, want -2", got)
	}
	if got := a.Mean(); got != -0.5 {
		t.Fatalf("Mean = %v, want -0.5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := a.Norm2(); math.Abs(got-math.Sqrt(30)) > 1e-12 {
		t.Fatalf("Norm2 = %v, want sqrt(30)", got)
	}
}

func TestArgmaxRow(t *testing.T) {
	a := FromSlice([]float64{0.1, 0.7, 0.2, 0.9, 0.05, 0.05}, 2, 3)
	got := a.ArgmaxRow()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRow = %v, want [1 0]", got)
	}
}

func TestSumRowsInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	dst := New(3)
	SumRowsInto(dst, a)
	want := []float64{5, 7, 9}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("SumRowsInto = %v, want %v", dst.Data(), want)
		}
	}
}

func TestAddRowVecMulRowVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 100}, 2)
	a.AddRowVec(v)
	if a.At(0, 0) != 11 || a.At(1, 1) != 104 {
		t.Fatalf("AddRowVec wrong: %v", a)
	}
	a.MulRowVec(v)
	if a.At(0, 0) != 110 || a.At(1, 1) != 10400 {
		t.Fatalf("MulRowVec wrong: %v", a)
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose2D()
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("transpose shape %v, want [3 2]", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", at)
	}
}

func TestClip(t *testing.T) {
	a := FromSlice([]float64{-5, 0, 5}, 3)
	a.Clip(-1, 1)
	if a.At(0) != -1 || a.At(1) != 0 || a.At(2) != 1 {
		t.Fatalf("Clip wrong: %v", a)
	}
}

func TestAllFinite(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	if !a.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	a.Set(math.NaN(), 0)
	if a.AllFinite() {
		t.Fatal("NaN tensor reported finite")
	}
	a.Set(math.Inf(1), 0)
	if a.AllFinite() {
		t.Fatal("Inf tensor reported finite")
	}
}

func TestStringAbbreviates(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String()")
	}
	big := New(100)
	s := big.String()
	if len(s) > 400 {
		t.Fatalf("String() of large tensor too long: %d chars", len(s))
	}
}

// --- property-based tests -------------------------------------------------

// TestPropAddCommutative: a+b == b+a elementwise.
func TestPropAddCommutative(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), vals...), len(vals))
		b := a.Map(func(v float64) float64 { return v/2 + 1 })
		return ApproxEqual(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropSubAddInverse: (a+b)-b == a (up to float rounding).
func TestPropSubAddInverse(t *testing.T) {
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		a := FromSlice(clean, len(clean))
		b := a.Map(func(v float64) float64 { return v * 0.3 })
		back := Add(a, b)
		SubInto(back, back, b)
		return ApproxEqual(back, a, 1e-6*math.Max(1, a.MaxAbs()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropReshapePreservesSum: reshaping never changes contents.
func TestPropReshapePreservesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		a := RandNormal(rng, 0, 1, rows, cols)
		return math.Abs(a.Sum()-a.Reshape(-1).Sum()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropTransposeInvolution: (Aᵀ)ᵀ == A.
func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		a := RandNormal(r, 0, 3, rows, cols)
		return ApproxEqual(a.Transpose2D().Transpose2D(), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropDotCauchySchwarz: |<a,b>| <= ||a||·||b||.
func TestPropDotCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a := RandNormal(r, 0, 2, n)
		b := RandNormal(r, 0, 2, n)
		return math.Abs(a.Dot(b)) <= a.Norm2()*b.Norm2()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %v vs %v", t.shape, o.shape))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// MulRowVec multiplies every row of a rank-2 tensor elementwise by vector v
// (length cols) in place.
func (t *Tensor) MulRowVec(v *Tensor) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: MulRowVec on rank-%d tensor", len(t.shape)))
	}
	rows, cols := t.shape[0], t.shape[1]
	if len(v.data) != cols {
		panic(fmt.Sprintf("tensor: MulRowVec vector length %d != cols %d", len(v.data), cols))
	}
	for r := 0; r < rows; r++ {
		row := t.data[r*cols : (r+1)*cols]
		for c := range row {
			row[c] *= v.data[c]
		}
	}
}

// Clip clamps every element of t into [lo, hi] in place.
func (t *Tensor) Clip(lo, hi float64) {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}

// SliceRows returns a new tensor that is a copy of rows [from, to) of a
// rank-2 tensor.
func (t *Tensor) SliceRows(from, to int) *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: SliceRows on rank-%d tensor", len(t.shape)))
	}
	if from < 0 || to > t.shape[0] || from > to {
		panic(fmt.Sprintf("tensor: SliceRows[%d:%d] out of range for %v", from, to, t.shape))
	}
	c := t.shape[1]
	out := New(to-from, c)
	copy(out.data, t.data[from*c:to*c])
	return out
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Tensor) {
	binaryCheck("SubInto", dst, a, b)
	for i, av := range a.data {
		dst.data[i] = av - b.data[i]
	}
}
