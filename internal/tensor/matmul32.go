package tensor

// Float32 GEMM for the compiled inference engine (internal/infer).
//
// Unlike the float64 training kernels — which must take weights in their
// natural (k, n) layout — the inference compiler owns the weight layout and
// pre-transposes every matrix to (n, k) at lowering time: one contiguous
// row per *output* column. That turns the product into pure dot products
// over contiguous operand rows, so the kernel holds a 2×4 tile of
// accumulators (two input rows against four weight rows) with no
// read-modify-write of dst inside the k loop. On amd64 CPUs with AVX2
// and FMA a row kernel in assembly (matmul32_amd64.s) walks every
// 4-column tile of two rows: eight 8-lane VFMADD231PS accumulators over
// k &^ 7, reduced horizontally once per tile, then the k tail (k mod 8,
// one VMULPS and one VADDPS per step, in the pure-Go tile's order), the
// bias and the ReLU in registers, and one 4-wide store per row. A 1-row
// kernel with the same lane order takes an odd last row, so a record's
// scores do not depend on its position in the batch. The n mod 4
// columns are single dot products in Go. Elsewhere, or with the purego
// build tag, the pure-Go tiles below run; they are also the oracle the
// assembly is tested against. The whole product runs on the caller's
// goroutine: with the SIMD kernel, fanning rows out over the GEMM worker
// pool bought no throughput on the serving rows and cost CPU in
// hand-offs (PERF.md, Fan-out); serving parallelism comes from its
// replicas.

// Act selects the activation fused into the GEMM epilogue.
type Act uint8

const (
	// ActNone applies only the (optional) bias.
	ActNone Act = iota
	// ActReLU applies max(0, x) after the bias add.
	ActReLU
)

// GemmBiasActF32 computes dst = act(a @ wᵀ + bias) for row-major float32
// slices a (m×k), w (n×k — one row per output column, the inference
// compiler's pre-transposed packing) and dst (m×n). bias (length n) may be
// nil. dst must not alias a or w.
//
//pelican:noalloc
func GemmBiasActF32(dst, a, w, bias []float32, m, k, n int, act Act) {
	if len(a) < m*k || len(w) < k*n || len(dst) < m*n {
		panic("tensor: GemmBiasActF32 slice shorter than its shape")
	}
	if bias != nil && len(bias) < n {
		panic("tensor: GemmBiasActF32 bias shorter than n")
	}
	gemmBlockF32(dst, a, w, bias, m, k, n, act)
}

// simdF32 selects the assembly kernels (matmul32_amd64.s, gate32_amd64.s)
// over the pure-Go code. It is set once from the CPU's features; tests
// flip it to run both on the same inputs.
var simdF32 = haveSIMDF32

// gemmBlockF32 computes the m rows of dst = act(a @ wᵀ + bias) two rows
// at a time, with a 1-row kernel for an odd last row. A row kernel walks
// the 4-column tiles of its rows and finishes each in registers: dot
// products, bias, activation, one store. The n mod 4 columns are single
// dot products in Go.
//
//pelican:noalloc
func gemmBlockF32(dst, a, w, bias []float32, m, k, n int, act Act) {
	relu := act == ActReLU
	i := 0
	for ; i+2 <= m; i += 2 {
		d, ar := dst[i*n:(i+2)*n], a[i*k:(i+2)*k]
		if simdF32 {
			gemmRows2F32(d, ar, w, bias, k, n, relu)
		} else {
			gemmRows2F32Go(d, ar, w, bias, k, n, relu)
		}
	}
	if i < m {
		d, ar := dst[i*n:(i+1)*n], a[i*k:(i+1)*k]
		if simdF32 {
			gemmRow1F32(d, ar, w, bias, k, n, relu)
		} else {
			gemmRow1F32Go(d, ar, w, bias, k, n, relu)
		}
	}
	for j := n &^ 3; j < n; j++ {
		wrow := w[j*k : (j+1)*k]
		for i := 0; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			var s float32
			for p, wv := range wrow {
				s += arow[p] * wv
			}
			if bias != nil {
				s += bias[j]
			}
			if relu {
				s = relu32(s)
			}
			dst[i*n+j] = s
		}
	}
}

// gemmRows2F32Go is gemmRows2F32 in pure Go: per 2×4 tile, eight
// accumulators live in registers across the whole k loop, each summing
// its dot product in order.
//
//pelican:noalloc
func gemmRows2F32Go(dst, a, w, bias []float32, k, n int, relu bool) {
	a0, a1 := a[:k], a[k:][:k]
	d0, d1 := dst[:n], dst[n:2*n]
	for j := 0; j+4 <= n; j += 4 {
		w0, w1, w2, w3 := w[j*k:(j+1)*k], w[(j+1)*k:(j+2)*k], w[(j+2)*k:(j+3)*k], w[(j+3)*k:(j+4)*k]
		var s00, s01, s02, s03 float32
		var s10, s11, s12, s13 float32
		for p := range a0 {
			av0, av1 := a0[p], a1[p]
			wv0, wv1, wv2, wv3 := w0[p], w1[p], w2[p], w3[p]
			s00 += av0 * wv0
			s01 += av0 * wv1
			s02 += av0 * wv2
			s03 += av0 * wv3
			s10 += av1 * wv0
			s11 += av1 * wv1
			s12 += av1 * wv2
			s13 += av1 * wv3
		}
		store4F32(d0, bias, j, s00, s01, s02, s03, relu)
		store4F32(d1, bias, j, s10, s11, s12, s13, relu)
	}
}

// gemmRow1F32Go is gemmRows2F32Go for one row.
//
//pelican:noalloc
func gemmRow1F32Go(dst, a, w, bias []float32, k, n int, relu bool) {
	a = a[:k]
	for j := 0; j+4 <= n; j += 4 {
		w0, w1, w2, w3 := w[j*k:(j+1)*k], w[(j+1)*k:(j+2)*k], w[(j+2)*k:(j+3)*k], w[(j+3)*k:(j+4)*k]
		var s0, s1, s2, s3 float32
		for p, av := range a {
			s0 += av * w0[p]
			s1 += av * w1[p]
			s2 += av * w2[p]
			s3 += av * w3[p]
		}
		store4F32(dst, bias, j, s0, s1, s2, s3, relu)
	}
}

// store4F32 adds bias[j:j+4] (if any) to four sums, applies the ReLU if
// asked and stores them at d[j:j+4].
//
//pelican:noalloc
func store4F32(d, bias []float32, j int, s0, s1, s2, s3 float32, relu bool) {
	if bias != nil {
		s0, s1, s2, s3 = s0+bias[j], s1+bias[j+1], s2+bias[j+2], s3+bias[j+3]
	}
	if relu {
		s0, s1, s2, s3 = relu32(s0), relu32(s1), relu32(s2), relu32(s3)
	}
	d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
}

//pelican:noalloc
func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
