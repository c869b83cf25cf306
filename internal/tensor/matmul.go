package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the approximate number of multiply-adds below which
// GEMM runs single-threaded; handing tiny products to the worker pool costs
// more than it saves.
const parallelThreshold = 1 << 16

// MatMulInto computes dst = a @ b for rank-2 tensors a (m×k) and b (k×n),
// writing into dst (m×n). dst must not alias a or b. Large products are
// split into row bands executed by the persistent GEMM worker pool.
//
//pelican:noalloc
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMulInto", dst, a, b, false, false)
	mulKernel(dst.data, a.data, b.data, m, k, n)
}

// MatMul returns a @ b as a new m×n tensor.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v @ %v", a.shape, b.shape))
	}
	dst := New(a.shape[0], b.shape[1])
	MatMulInto(dst, a, b)
	return dst
}

// MatMulTransAInto computes dst = aᵀ @ b where a is k×m and b is k×n,
// producing m×n. Used by backward passes (weight gradients).
//
//pelican:noalloc
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMulTransAInto", dst, a, b, true, false)
	mulKernelTransA(dst.data, a.data, b.data, m, k, n)
}

// MatMulTransBInto computes dst = a @ bᵀ where a is m×k and b is n×k,
// producing m×n. Used by backward passes (input gradients).
//
//pelican:noalloc
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMulTransBInto", dst, a, b, false, true)
	mulKernelTransB(dst.data, a.data, b.data, m, k, n)
}

// checkMatMul validates shapes and returns (m, k, n). The panic paths may
// format freely; the noalloc contract exempts them.
//
//pelican:noalloc
func checkMatMul(op string, dst, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors, got dst=%v a=%v b=%v", op, dst.shape, a.shape, b.shape))
	}
	if transA {
		k, m = a.shape[0], a.shape[1]
	} else {
		m, k = a.shape[0], a.shape[1]
	}
	var kb int
	if transB {
		n, kb = b.shape[0], b.shape[1]
	} else {
		kb, n = b.shape[0], b.shape[1]
	}
	if kb != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch a=%v b=%v (transA=%v transB=%v)", op, a.shape, b.shape, transA, transB))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	return m, k, n
}

// gemmKind selects which block kernel a dispatched band runs.
type gemmKind uint8

const (
	gemmF64 gemmKind = iota
	gemmF64TransA
	gemmF64TransB
	gemmF32Fused
)

// gemmArgs carries one kernel invocation's operands by value. Dispatch
// used to hand the pool a fresh closure per call, which heap-allocated the
// closure and its captured variables on every parallel GEMM; a value
// struct copied into the channel buffer allocates nothing.
type gemmArgs struct {
	kind       gemmKind
	dst, a, b  []float64
	dst32, a32 []float32
	w32, b32   []float32
	m, k, n    int
	act        Act
}

// run executes rows [r0, r1) of the invocation on the calling goroutine.
//
//pelican:noalloc
func (g *gemmArgs) run(r0, r1 int) {
	switch g.kind {
	case gemmF64:
		mulBlock(g.dst, g.a, g.b, r0, r1, g.k, g.n)
	case gemmF64TransA:
		mulBlockTransA(g.dst, g.a, g.b, r0, r1, g.m, g.k, g.n)
	case gemmF64TransB:
		mulBlockTransB(g.dst, g.a, g.b, r0, r1, g.k, g.n)
	case gemmF32Fused:
		gemmBlockF32(g.dst32, g.a32, g.w32, g.b32, r0, r1, g.k, g.n, g.act)
	}
}

// gemmTask is one row band of a kernel invocation, executed by a pool
// worker (or inline by the submitter for the first band).
type gemmTask struct {
	args   gemmArgs
	r0, r1 int
	wg     *sync.WaitGroup
}

var (
	gemmOnce    sync.Once
	gemmQueue   chan gemmTask
	gemmWorkers int
	// gemmWGs recycles the completion WaitGroups so a parallel dispatch
	// never heap-allocates one per call. A sync.Pool did not: a WaitGroup
	// Put on one P and wanted by a Get on another missed and allocated.
	// The buffer holds more WaitGroups than goroutines dispatch GEMMs at
	// once (serving replicas, training), so after warm-up every dispatch
	// finds one.
	gemmWGs = make(chan *sync.WaitGroup, 64)
)

// startGEMMPool launches the persistent worker goroutines. The pool size is
// fixed at first use from GOMAXPROCS; workers live for the process lifetime
// and cost nothing while idle (blocked on channel receive).
func startGEMMPool() {
	gemmWorkers = runtime.GOMAXPROCS(0)
	gemmQueue = make(chan gemmTask, 4*gemmWorkers)
	for i := 0; i < gemmWorkers; i++ {
		go gemmWorker()
	}
}

// gemmWorker drains the task queue for the process lifetime.
//
//pelican:noalloc
func gemmWorker() {
	for t := range gemmQueue {
		t.args.run(t.r0, t.r1)
		t.wg.Done()
	}
}

// serialRows reports whether an m-row kernel with the given per-row work
// should run on the calling goroutine only. Kept separate from
// parallelRows so the serial fast path never touches the pool.
//
//pelican:noalloc
func serialRows(m, workPerRow int) bool {
	return runtime.GOMAXPROCS(0) <= 1 || m <= 1 || m*workPerRow < parallelThreshold
}

// parallelRows splits the row range [0, m) across the persistent worker
// pool. The calling goroutine executes the first band itself, so small
// splits never pay a full handoff and the pool can never deadlock on its
// own submissions.
//
//pelican:noalloc
func parallelRows(m int, args gemmArgs) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		args.run(0, m)
		return
	}
	gemmOnce.Do(startGEMMPool)
	band := (m + workers - 1) / workers
	var wg *sync.WaitGroup
	select {
	case wg = <-gemmWGs:
	default:
	}
	if wg == nil {
		wg = new(sync.WaitGroup)
	}
	for r0 := band; r0 < m; r0 += band {
		r1 := r0 + band
		if r1 > m {
			r1 = m
		}
		wg.Add(1)
		gemmQueue <- gemmTask{args: args, r0: r0, r1: r1, wg: wg}
	}
	args.run(0, band)
	wg.Wait()
	select {
	case gemmWGs <- wg:
	default:
	}
}

// The three kernels below are cache-blocked in row panels: each pass
// produces four rows of dst from one sequential stream over b, so every b
// element loaded from cache feeds four multiply-adds instead of one. This
// layout beats dot-product register tiles here because b is walked with
// unit stride (hardware prefetch) rather than column-strided. Panels whose
// four a-values are all zero are skipped, which keeps the old kernels'
// shortcut for zero initial recurrent states and post-ReLU sparsity.

// mulKernel computes dst = a @ b, a: m×k, b: k×n (row-major flat slices).
//
//pelican:noalloc
func mulKernel(dst, a, b []float64, m, k, n int) {
	if serialRows(m, k*n) {
		mulBlock(dst, a, b, 0, m, k, n)
		return
	}
	parallelRows(m, gemmArgs{kind: gemmF64, dst: dst, a: a, b: b, m: m, k: k, n: n})
}

// mulBlock computes rows [r0, r1) of dst = a @ b in four-row panels.
//
//pelican:noalloc
func mulBlock(dst, a, b []float64, r0, r1, k, n int) {
	i := r0
	for ; i+4 <= r1; i += 4 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		d0 := dst[(i+0)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		d2 := dst[(i+2)*n : (i+3)*n]
		d3 := dst[(i+3)*n : (i+4)*n]
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for p := 0; p < k; p++ {
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	// Remainder rows: the scalar axpy kernel.
	for ; i < r1; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulKernelTransA computes dst = aᵀ @ b, a: k×m, b: k×n.
// dst[i][j] = sum_p a[p][i] * b[p][j]: the four a-values of a panel are
// adjacent within one a-row, and b streams sequentially exactly as in
// mulKernel.
//
//pelican:noalloc
func mulKernelTransA(dst, a, b []float64, m, k, n int) {
	if serialRows(m, k*n) {
		mulBlockTransA(dst, a, b, 0, m, m, k, n)
		return
	}
	parallelRows(m, gemmArgs{kind: gemmF64TransA, dst: dst, a: a, b: b, m: m, k: k, n: n})
}

// mulBlockTransA computes rows [r0, r1) of dst = aᵀ @ b.
//
//pelican:noalloc
func mulBlockTransA(dst, a, b []float64, r0, r1, m, k, n int) {
	i := r0
	for ; i+4 <= r1; i += 4 {
		d0 := dst[(i+0)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		d2 := dst[(i+2)*n : (i+3)*n]
		d3 := dst[(i+3)*n : (i+4)*n]
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j] = 0, 0, 0, 0
		}
		for p := 0; p < k; p++ {
			ap := a[p*m+i : p*m+i+4 : p*m+i+4]
			av0, av1, av2, av3 := ap[0], ap[1], ap[2], ap[3]
			if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				d0[j] += av0 * bv
				d1[j] += av1 * bv
				d2[j] += av2 * bv
				d3[j] += av3 * bv
			}
		}
	}
	for ; i < r1; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulKernelTransB computes dst = a @ bᵀ, a: m×k, b: n×k.
// dst[i][j] = dot(a_row_i, b_row_j): both operand rows are contiguous, so
// the tile holds two a-rows against four b-rows in eight dot accumulators.
//
//pelican:noalloc
func mulKernelTransB(dst, a, b []float64, m, k, n int) {
	if serialRows(m, k*n) {
		mulBlockTransB(dst, a, b, 0, m, k, n)
		return
	}
	parallelRows(m, gemmArgs{kind: gemmF64TransB, dst: dst, a: a, b: b, m: m, k: k, n: n})
}

// mulBlockTransB computes rows [r0, r1) of dst = a @ bᵀ.
//
//pelican:noalloc
func mulBlockTransB(dst, a, b []float64, r0, r1, k, n int) {
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		d0 := dst[(i+0)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s0, s1 float64
			for p, bv := range brow {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
			}
			d0[j], d1[j] = s0, s1
		}
	}
	for ; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}
