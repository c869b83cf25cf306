package tensor

import "math"

// Float32 GEMM for the compiled inference engine (internal/infer).
//
// Unlike the float64 training kernels — which must take weights in their
// natural (k, n) layout — the inference compiler owns the weight layout
// and packs every matrix into 32-column panels at lowering time
// (PackPanelsF32): panel j holds rows p = 0…k−1 of columns 32j…32j+31
// contiguously, and the last panel holds only the n mod 32 real columns,
// so a packed matrix is exactly k·n floats. A kernel keeps a tile of rows
// × 32 columns of accumulators in registers, broadcasts one input value
// per row per k step and multiply-adds it into a whole panel row: no
// horizontal reduction, no gathered tail, no column remainder loop.
//
// Every path computes one order, so every ISA, batch size and row
// position gives the same bits: each output starts at 0, takes a fused
// multiply-add for p = 0…k−1 in order, then adds the bias, then applies
// the ReLU. Three paths implement it:
//
//   - amd64 with AVX-512F: tiles of 8 rows × 32 columns (16 ZMM
//     accumulators), then 4-, 2- and 1-row tiles for the m mod 8 rows; the
//     last panel uses masked loads and stores (matmul32_amd64.s);
//   - amd64 with AVX2 and FMA: tiles of 2 rows × 32 columns, then a 1-row
//     tile, with VMASKMOVPS on the last panel;
//   - elsewhere, or with the purego build tag: a Go loop over fma32, a
//     correctly rounded float32 FMA. It is also the oracle the assembly is
//     tested against.
//
// The whole product runs on the caller's goroutine: fanning rows out over
// the GEMM worker pool bought no throughput on the serving rows and cost
// CPU in hand-offs (PERF.md, Fan-out); serving parallelism comes from its
// replicas.

// Act selects the activation fused into the GEMM epilogue.
type Act uint8

const (
	// ActNone applies only the (optional) bias.
	ActNone Act = iota
	// ActReLU applies max(0, x) after the bias add.
	ActReLU
)

// panelF32 is the column width of a packed weight panel.
const panelF32 = 32

// PackPanelsF32 narrows a row-major (k, n) float64 weight matrix to the
// float32 panel layout GemmBiasActF32 reads: k·n floats, panel j (columns
// 32j…) holding its rows p = 0…k−1 contiguously, the last panel only as
// wide as the columns left.
func PackPanelsF32(w []float64, k, n int) []float32 {
	out := make([]float32, k*n)
	for j0 := 0; j0 < n; j0 += panelF32 {
		wj := min(panelF32, n-j0)
		panel := out[j0*k : (j0+wj)*k]
		for p := 0; p < k; p++ {
			for c, v := range w[p*n+j0 : p*n+j0+wj] {
				panel[p*wj+c] = float32(v)
			}
		}
	}
	return out
}

// GemmBiasActF32 computes dst = act(a @ w + bias) for row-major float32
// slices a (m×k) and dst (m×n) and a weight matrix w (k×n) packed by
// PackPanelsF32. bias (length n) may be nil. dst must not alias a or w.
//
//pelican:noalloc
func GemmBiasActF32(dst, a, w, bias []float32, m, k, n int, act Act) {
	if len(a) < m*k || len(w) < k*n || len(dst) < m*n {
		panic("tensor: GemmBiasActF32 slice shorter than its shape")
	}
	if bias != nil && len(bias) < n {
		panic("tensor: GemmBiasActF32 bias shorter than n")
	}
	relu := act == ActReLU
	i := 0
	switch isaF32 {
	case isaAVX512:
		for ; i+8 <= m; i += 8 {
			gemm8AVX512(dst[i*n:], a[i*k:], w, bias, k, n, relu)
		}
		if i+4 <= m {
			gemm4AVX512(dst[i*n:], a[i*k:], w, bias, k, n, relu)
			i += 4
		}
		if i+2 <= m {
			gemm2AVX512(dst[i*n:], a[i*k:], w, bias, k, n, relu)
			i += 2
		}
		if i < m {
			gemm1AVX512(dst[i*n:], a[i*k:], w, bias, k, n, relu)
		}
	case isaAVX2:
		for ; i+2 <= m; i += 2 {
			gemm2AVX2(dst[i*n:], a[i*k:], w, bias, k, n, relu)
		}
		if i < m {
			gemm1AVX2(dst[i*n:], a[i*k:], w, bias, k, n, relu)
		}
	default:
		gemmGoF32(dst, a, w, bias, m, k, n, relu)
	}
}

// isa names one implementation of the f32 kernels, in order of preference.
type isa uint8

const (
	isaGo     isa = iota // pure Go
	isaAVX2              // AVX2 and FMA: the GEMM's 2×32 tile and the GRU gate
	isaAVX512            // AVX-512F: the GEMM's 8×32 tile
)

// isaF32 selects the f32 kernels (matmul32_amd64.s, gate32_amd64.s). It
// is set once from the CPU's features; tests lower it to run every path
// on the same inputs.
var isaF32 = bestISA

// gemmGoF32 is the kernels' order in Go: for each panel and row, up to 32
// accumulators take fma32 over p in order, then the bias and the ReLU.
//
//pelican:noalloc
func gemmGoF32(dst, a, w, bias []float32, m, k, n int, relu bool) {
	for j0 := 0; j0 < n; j0 += panelF32 {
		wj := min(panelF32, n-j0)
		panel := w[j0*k : (j0+wj)*k]
		for i := 0; i < m; i++ {
			var acc [panelF32]float32
			s := acc[:wj]
			for p, av := range a[i*k : (i+1)*k] {
				for c, wv := range panel[p*wj : (p+1)*wj] {
					s[c] = fma32(av, wv, s[c])
				}
			}
			d := dst[i*n+j0 : i*n+j0+wj]
			for c, v := range s {
				if bias != nil {
					v += bias[j0+c]
				}
				if relu {
					v = relu32(v)
				}
				d[c] = v
			}
		}
	}
}

// fma32 returns a·b + c rounded once to float32, as VFMADD231PS does;
// float32(math.FMA(…)) would round twice. The float64 product of two
// float32s is exact, and TwoSum gives the error e of adding c. Rounding
// that sum to odd — toward zero, then the last bit set if inexact — keeps
// the narrowing conversion from rounding a tie the float64 sum made.
//
//pelican:noalloc
func fma32(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	r := s - p
	// e is NaN when an input is not finite, and s is then the answer.
	// Where e and s differ in sign, |s| was rounded up: step toward zero.
	if e := (p - (s - r)) + (q - r); e != 0 && e == e {
		bits := math.Float64bits(s)
		s = math.Float64frombits((bits - (bits^math.Float64bits(e))>>63) | 1)
	}
	return float32(s)
}

//pelican:noalloc
func relu32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}
