package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation used to validate the
// optimized/parallel kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, 5, 5)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(1, i, i)
	}
	if !ApproxEqual(MatMul(a, eye), a, 1e-12) {
		t.Fatal("A @ I != A")
	}
	if !ApproxEqual(MatMul(eye, a), a, 1e-12) {
		t.Fatal("I @ A != A")
	}
}

func TestMatMulMatchesNaiveAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 17, 29}, {64, 128, 32}}
	for _, sz := range sizes {
		m, k, n := sz[0], sz[1], sz[2]
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !ApproxEqual(got, want, 1e-9) {
			t.Fatalf("MatMul mismatch at size %v", sz)
		}
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	// Big enough to exceed parallelThreshold and exercise the banded path.
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 0, 1, 150, 80)
	b := RandNormal(rng, 0, 1, 80, 90)
	if !ApproxEqual(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
		t.Fatal("parallel MatMul mismatch vs naive")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 0, 1, 6, 4) // k×m layout: aᵀ is 4×6
	b := RandNormal(rng, 0, 1, 6, 5)
	dst := New(4, 5)
	MatMulTransAInto(dst, a, b)
	want := naiveMatMul(a.Transpose2D(), b)
	if !ApproxEqual(dst, want, 1e-9) {
		t.Fatal("MatMulTransAInto mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := RandNormal(rng, 0, 1, 6, 4)
	b := RandNormal(rng, 0, 1, 5, 4) // n×k layout: bᵀ is 4×5
	dst := New(6, 5)
	MatMulTransBInto(dst, a, b)
	want := naiveMatMul(a, b.Transpose2D())
	if !ApproxEqual(dst, want, 1e-9) {
		t.Fatal("MatMulTransBInto mismatch")
	}
}

// oddDims are deliberately awkward sizes that exercise every remainder path
// of the 4×4/2×4 register tiles (single rows, tails mod 4, tile-aligned).
var oddDims = []int{1, 3, 17, 64, 127}

// TestTiledKernelsMatchNaiveOddShapes cross-checks all three tiled kernels
// against the naive reference over every (m, k, n) combination of oddDims.
func TestTiledKernelsMatchNaiveOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range oddDims {
		for _, k := range oddDims {
			for _, n := range oddDims {
				a := RandNormal(rng, 0, 1, m, k)
				b := RandNormal(rng, 0, 1, k, n)
				want := naiveMatMul(a, b)

				got := New(m, n)
				MatMulInto(got, a, b)
				if !ApproxEqual(got, want, 1e-9) {
					t.Fatalf("MatMulInto mismatch at m=%d k=%d n=%d", m, k, n)
				}

				MatMulTransAInto(got, a.Transpose2D(), b)
				if !ApproxEqual(got, want, 1e-9) {
					t.Fatalf("MatMulTransAInto mismatch at m=%d k=%d n=%d", m, k, n)
				}

				MatMulTransBInto(got, a, b.Transpose2D())
				if !ApproxEqual(got, want, 1e-9) {
					t.Fatalf("MatMulTransBInto mismatch at m=%d k=%d n=%d", m, k, n)
				}
			}
		}
	}
}

// TestTiledKernelsZeroBlocks checks the all-zero block shortcut: sparse
// operands (zero rows/blocks interleaved) must still produce exact results.
func TestTiledKernelsZeroBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := RandNormal(rng, 0, 1, 13, 9)
	b := RandNormal(rng, 0, 1, 9, 11)
	ad := a.Data()
	for i := 0; i < a.Len(); i++ {
		if i%3 != 0 {
			ad[i] = 0
		}
	}
	for r := 4; r < 8; r++ { // a full zero row band
		for c := 0; c < 9; c++ {
			a.Set(0, r, c)
		}
	}
	want := naiveMatMul(a, b)

	got := New(13, 11)
	MatMulInto(got, a, b)
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatal("sparse MatMulInto mismatch vs naive")
	}
	MatMulTransAInto(got, a.Transpose2D(), b)
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatal("sparse MatMulTransAInto mismatch vs naive")
	}
	MatMulTransBInto(got, a, b.Transpose2D())
	if !ApproxEqual(got, want, 1e-12) {
		t.Fatal("sparse MatMulTransBInto mismatch vs naive")
	}
}

// TestMatMulConcurrent hammers the shared worker pool from many goroutines
// with distinct destinations; run under -race it proves MatMulInto is safe
// for concurrent use.
func TestMatMulConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Big enough that m*k*n exceeds parallelThreshold, forcing pool use
	// whenever GOMAXPROCS > 1.
	a := RandNormal(rng, 0, 1, 96, 64)
	b := RandNormal(rng, 0, 1, 64, 48)
	want := naiveMatMul(a, b)

	const goroutines = 8
	const iters = 20
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			dst := New(96, 48)
			for it := 0; it < iters; it++ {
				MatMulInto(dst, a, b)
				if !ApproxEqual(dst, want, 1e-9) {
					errs <- fmt.Errorf("concurrent MatMulInto diverged")
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatVecInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 0, -1}, 3)
	dst := New(2)
	MatVecInto(dst, a, x)
	if dst.At(0) != -2 || dst.At(1) != -2 {
		t.Fatalf("MatVecInto = %v, want [-2 -2]", dst.Data())
	}
}

func TestOuterAccumulates(t *testing.T) {
	dst := Ones(2, 3)
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{3, 4, 5}, 3)
	Outer(dst, 2, x, y)
	// dst[i][j] = 1 + 2*x[i]*y[j]
	if dst.At(0, 0) != 7 || dst.At(1, 2) != 21 {
		t.Fatalf("Outer wrong: %v", dst)
	}
}

// TestPropMatMulDistributive: A(B+C) == AB + AC.
func TestPropMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, k, n)
		c := RandNormal(r, 0, 1, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		return ApproxEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropMatMulAssociative: (AB)C == A(BC).
func TestPropMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, k, n)
		c := RandNormal(r, 0, 1, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return ApproxEqual(left, right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropTransposeProduct: (AB)ᵀ == BᵀAᵀ.
func TestPropTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := RandNormal(r, 0, 1, m, k)
		b := RandNormal(r, 0, 1, k, n)
		left := MatMul(a, b).Transpose2D()
		right := MatMul(b.Transpose2D(), a.Transpose2D())
		return ApproxEqual(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := GlorotUniform(rng, 100, 100, 50, 50)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range w.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Glorot sample %v outside ±%v", v, limit)
		}
	}
}

func TestHeNormalStd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := HeNormal(rng, 50, 200, 200)
	var sum, sq float64
	for _, v := range w.Data() {
		sum += v
		sq += v * v
	}
	n := float64(w.Len())
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want)/want > 0.05 {
		t.Fatalf("He std = %v, want ≈ %v", std, want)
	}
}

func TestShuffleKeepsRowsAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := 64
	x := New(rows, 2)
	labels := make([]int, rows)
	for i := 0; i < rows; i++ {
		x.Set(float64(i), i, 0)
		x.Set(float64(i)*10, i, 1)
		labels[i] = i
	}
	Shuffle(rng, x, labels)
	perm := make([]bool, rows)
	for i := 0; i < rows; i++ {
		l := labels[i]
		if x.At(i, 0) != float64(l) || x.At(i, 1) != float64(l)*10 {
			t.Fatalf("row %d no longer aligned with its label %d", i, l)
		}
		if perm[l] {
			t.Fatalf("label %d appears twice after shuffle", l)
		}
		perm[l] = true
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 0, 1, 128, 128)
	y := RandNormal(rng, 0, 1, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 0, 1, 512, 512)
	y := RandNormal(rng, 0, 1, 512, 512)
	dst := New(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// MatVecInto computes dst = a @ x for a rank-2 a (m×k) and vector x (k),
// writing into vector dst (m).
//
//pelican:noalloc
func MatVecInto(dst, a, x *Tensor) {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatVecInto requires rank-2 a, got %v", a.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if len(x.data) != k || len(dst.data) != m {
		panic(fmt.Sprintf("tensor: MatVecInto shape mismatch a=%v x=%v dst=%v", a.shape, x.shape, dst.shape))
	}
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		s := 0.0
		for p, av := range row {
			s += av * x.data[p]
		}
		dst.data[i] = s
	}
}

// Outer computes dst += alpha * x ⊗ y where x has length m, y has length n
// and dst is m×n. Used for rank-1 gradient accumulation.
//
//pelican:noalloc
func Outer(dst *Tensor, alpha float64, x, y *Tensor) {
	if len(dst.shape) != 2 {
		panic(fmt.Sprintf("tensor: Outer requires rank-2 dst, got %v", dst.shape))
	}
	m, n := dst.shape[0], dst.shape[1]
	if len(x.data) != m || len(y.data) != n {
		panic(fmt.Sprintf("tensor: Outer shape mismatch dst=%v x=%v y=%v", dst.shape, x.shape, y.shape))
	}
	for i := 0; i < m; i++ {
		xv := alpha * x.data[i]
		if xv == 0 {
			continue
		}
		drow := dst.data[i*n : (i+1)*n]
		for j, yv := range y.data {
			drow[j] += xv * yv
		}
	}
}

// HeNormal initializes a new tensor with He-normal: N(0, sqrt(2/fanIn)),
// the usual choice before ReLU nonlinearities.
func HeNormal(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	return RandNormal(rng, 0, math.Sqrt(2.0/float64(fanIn)), shape...)
}

// Shuffle permutes the rows of a rank-2 tensor in place using rng
// (Fisher–Yates). labels, if non-nil, is permuted identically so rows and
// labels stay aligned.
func Shuffle(rng *rand.Rand, t *Tensor, labels []int) {
	if len(t.shape) != 2 {
		panic("tensor: Shuffle requires a rank-2 tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	if labels != nil && len(labels) != rows {
		panic("tensor: Shuffle labels length must match row count")
	}
	tmp := make([]float64, cols)
	for i := rows - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri := t.data[i*cols : (i+1)*cols]
		rj := t.data[j*cols : (j+1)*cols]
		copy(tmp, ri)
		copy(ri, rj)
		copy(rj, tmp)
		if labels != nil {
			labels[i], labels[j] = labels[j], labels[i]
		}
	}
}
