package tensor

// Float32 GEMM for the compiled inference engine (internal/infer).
//
// Unlike the float64 training kernels — which must take weights in their
// natural (k, n) layout — the inference compiler owns the weight layout and
// pre-transposes every matrix to (n, k) at lowering time: one contiguous
// row per *output* column. That turns the product into pure dot products
// over contiguous operand rows, so the kernel holds a 2×4 tile of
// accumulators (two input rows against four weight rows) with no
// read-modify-write of dst inside the k loop. On amd64 CPUs with AVX2 and
// FMA the k loop of that tile runs in assembly (matmul32_amd64.s): eight
// 8-lane VFMADD231PS accumulators, reduced horizontally once per tile; the
// 1-row remainder uses a 1×4 tile with the same lane order, so a record's
// scores do not depend on its position in the batch. The k tail (k mod 8),
// bias add and activation run in the Go epilogue. Elsewhere, or with the
// purego build tag, the pure-Go tiles below run; they are also the oracle
// the assembly is tested against. Rows are parallelized in bands over the
// persistent GEMM worker pool.

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
	if serialRows(m, k*n) {
		gemmBlockF32(dst, a, w, bias, 0, m, k, n, act)
		return
	}
	parallelRows(m, gemmArgs{kind: gemmF32Fused, dst32: dst, a32: a, w32: w, b32: bias, m: m, k: k, n: n, act: act})
}

// simdF32 selects the assembly dot tiles (matmul32_amd64.s) over the
// pure-Go ones. It is set once from the CPU's features; tests flip it to
// run both on the same inputs.
var simdF32 = haveSIMDF32

// gemmBlockF32 computes rows [r0, r1) of dst = act(a @ wᵀ + bias) in 2×4
// tiles, with 1×4 tiles for an odd last row. A tile kernel sums the first
// kt products of each dot: all k in pure Go, the multiple of 8 below k in
// assembly. The epilogue adds the remaining products, the bias and the
// activation while the eight sums are still in registers.
//
//pelican:noalloc
func gemmBlockF32(dst, a, w, bias []float32, r0, r1, k, n int, act Act) {
	kt := k
	if simdF32 {
		kt = k &^ 7
	}
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		d0 := dst[(i+0)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			wt := w[j*k : (j+4)*k]
			var s [8]float32
			if kt > 0 {
				if simdF32 {
					dotTile2x4F32(&a0[0], &wt[0], kt, k, &s)
				} else {
					dotTile2x4F32Go(a0, a1, wt, kt, k, &s)
				}
			}
			s00, s01, s02, s03 := s[0], s[1], s[2], s[3]
			s10, s11, s12, s13 := s[4], s[5], s[6], s[7]
			for p := kt; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				wv0, wv1, wv2, wv3 := wt[p], wt[k+p], wt[2*k+p], wt[3*k+p]
				s00 += av0 * wv0
				s01 += av0 * wv1
				s02 += av0 * wv2
				s03 += av0 * wv3
				s10 += av1 * wv0
				s11 += av1 * wv1
				s12 += av1 * wv2
				s13 += av1 * wv3
			}
			if bias != nil {
				b0, b1, b2, b3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
				s00, s01, s02, s03 = s00+b0, s01+b1, s02+b2, s03+b3
				s10, s11, s12, s13 = s10+b0, s11+b1, s12+b2, s13+b3
			}
			if act == ActReLU {
				s00, s01, s02, s03 = relu32(s00), relu32(s01), relu32(s02), relu32(s03)
				s10, s11, s12, s13 = relu32(s10), relu32(s11), relu32(s12), relu32(s13)
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			wrow := w[j*k : (j+1)*k]
			var s0, s1 float32
			for p, wv := range wrow {
				s0 += a0[p] * wv
				s1 += a1[p] * wv
			}
			if bias != nil {
				s0 += bias[j]
				s1 += bias[j]
			}
			if act == ActReLU {
				s0, s1 = relu32(s0), relu32(s1)
			}
			d0[j], d1[j] = s0, s1
		}
	}
	// Remainder row: 1×4 tiles.
	for ; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			wt := w[j*k : (j+4)*k]
			var s [4]float32
			if kt > 0 {
				if simdF32 {
					dotTile1x4F32(&arow[0], &wt[0], kt, k, &s)
				} else {
					dotTile1x4F32Go(arow, wt, kt, k, &s)
				}
			}
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			for p := kt; p < k; p++ {
				av := arow[p]
				s0 += av * wt[p]
				s1 += av * wt[k+p]
				s2 += av * wt[2*k+p]
				s3 += av * wt[3*k+p]
			}
			if bias != nil {
				s0, s1, s2, s3 = s0+bias[j], s1+bias[j+1], s2+bias[j+2], s3+bias[j+3]
			}
			if act == ActReLU {
				s0, s1, s2, s3 = relu32(s0), relu32(s1), relu32(s2), relu32(s3)
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			wrow := w[j*k : (j+1)*k]
			var s float32
			for p, wv := range wrow {
				s += arow[p] * wv
			}
			if bias != nil {
				s += bias[j]
			}
			if act == ActReLU {
				s = relu32(s)
			}
			drow[j] = s
		}
	}
}

// dotTile2x4F32Go sets s[4r+c] to the dot product of input row r (a0,
// a1) with weight row c (wt at offsets 0, k, 2k, 3k) over the first kt
// elements, summed in order: eight accumulators live in registers across
// the whole loop.
//
//pelican:noalloc
func dotTile2x4F32Go(a0, a1, wt []float32, kt, k int, s *[8]float32) {
	a0, a1 = a0[:kt], a1[:kt]
	w0, w1, w2, w3 := wt[:kt], wt[k:k+kt], wt[2*k:2*k+kt], wt[3*k:3*k+kt]
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
	*s = [8]float32{s00, s01, s02, s03, s10, s11, s12, s13}
}

// dotTile1x4F32Go is dotTile2x4F32Go for one input row.
//
//pelican:noalloc
func dotTile1x4F32Go(arow, wt []float32, kt, k int, s *[4]float32) {
	arow = arow[:kt]
	w0, w1, w2, w3 := wt[:kt], wt[k:k+kt], wt[2*k:2*k+kt], wt[3*k:3*k+kt]
	var s0, s1, s2, s3 float32
	for p, av := range arow {
		s0 += av * w0[p]
		s1 += av * w1[p]
		s2 += av * w2[p]
		s3 += av * w3[p]
	}
	*s = [4]float32{s0, s1, s2, s3}
}

//pelican:noalloc
func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
