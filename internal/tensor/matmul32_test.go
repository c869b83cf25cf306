package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// gemmRefF32 is the naive float64-accumulating reference the tiled f32
// kernel is checked against. w is (n, k): one row per output column, the
// kernel's pre-transposed weight layout.
func gemmRefF32(a, w, bias []float32, m, k, n int, act Act) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(w[j*k+p])
			}
			if bias != nil {
				s += float64(bias[j])
			}
			if act == ActReLU && s < 0 {
				s = 0
			}
			out[i*n+j] = float32(s)
		}
	}
	return out
}

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// TestGemmF32MatchesReferenceOddShapes sweeps shapes across tile
// boundaries (odd rows, column remainders, tiny k, k tails) and both
// epilogues, through both tiles.
func TestGemmF32MatchesReferenceOddShapes(t *testing.T) {
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.simd)
			rng := rand.New(rand.NewSource(7))
			for _, m := range []int{1, 2, 3, 5, 17, 64} {
				for _, k := range []int{1, 7, 8, 33} {
					for _, n := range []int{1, 3, 4, 5, 19, 64} {
						a := randF32(rng, m*k)
						w := randF32(rng, k*n)
						bias := randF32(rng, n)
						for _, act := range []Act{ActNone, ActReLU} {
							for _, bi := range [][]float32{nil, bias} {
								want := gemmRefF32(a, w, bi, m, k, n, act)
								got := make([]float32, m*n)
								GemmBiasActF32(got, a, w, bi, m, k, n, act)
								for i := range want {
									if math.Abs(float64(got[i]-want[i])) > 1e-4 {
										t.Fatalf("m=%d k=%d n=%d act=%d bias=%v: [%d] got %v want %v",
											m, k, n, act, bi != nil, i, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestGemmF32RowIndependentOfBatchPosition pins that a row's outputs are
// bit-identical whether it runs in a 2-row tile or as the 1-row
// remainder: a record's score must not depend on the size of the batch
// it arrived in, nor on where in the batch it sits.
func TestGemmF32RowIndependentOfBatchPosition(t *testing.T) {
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.simd)
			rng := rand.New(rand.NewSource(5))
			m, k, n := 3, 196, 10
			a, w, bias := randF32(rng, m*k), randF32(rng, k*n), randF32(rng, n)
			batch := make([]float32, m*n)
			GemmBiasActF32(batch, a, w, bias, m, k, n, ActNone)
			for i := 0; i < m; i++ {
				alone := make([]float32, n)
				GemmBiasActF32(alone, a[i*k:(i+1)*k], w, bias, 1, k, n, ActNone)
				for j := range alone {
					if alone[j] != batch[i*n+j] {
						t.Fatalf("row %d col %d: %v alone, %v in the batch", i, j, alone[j], batch[i*n+j])
					}
				}
			}
		})
	}
}

// TestGemmF32EpilogueOnZeroInput pins that an all-zero input still gets
// the bias/activation epilogue on every tile path.
func TestGemmF32EpilogueOnZeroInput(t *testing.T) {
	m, k, n := 7, 16, 9 // odd row + column remainders
	a := make([]float32, m*k)
	w := randF32(rand.New(rand.NewSource(3)), k*n)
	bias := make([]float32, n)
	for j := range bias {
		bias[j] = float32(j) - 3.5
	}
	got := make([]float32, m*n)
	GemmBiasActF32(got, a, w, bias, m, k, n, ActReLU)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := bias[j]
			if want < 0 {
				want = 0
			}
			if got[i*n+j] != want {
				t.Fatalf("[%d,%d] = %v, want %v", i, j, got[i*n+j], want)
			}
		}
	}
}

// TestGemmF32Parallel checks a product of many whole tiles in both
// directions against the reference; CI runs it under -race beside the
// infer parity tests, whose detectors call the GEMM concurrently.
func TestGemmF32Parallel(t *testing.T) {
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.simd)
			rng := rand.New(rand.NewSource(11))
			m, k, n := 96, 128, 96
			a := randF32(rng, m*k)
			w := randF32(rng, k*n)
			want := gemmRefF32(a, w, nil, m, k, n, ActNone)
			got := make([]float32, m*n)
			GemmBiasActF32(got, a, w, nil, m, k, n, ActNone)
			for i := range want {
				if math.Abs(float64(got[i]-want[i])) > 1e-3 {
					t.Fatalf("[%d] got %v want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// ramp returns n multiples of 1/4, ((i·step) mod mod − mod/2)/4: products
// are exact multiples of 1/16 and every partial sum of the shapes below is
// exact in float32, so any summation order gives the same bits and a
// literal expected output can be checked exactly. mod 13 and 17 keep
// consecutive rows of every width below distinct.
func ramp(n, step, mod int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32((i*step)%mod-mod/2) / 4
	}
	return out
}

// fill returns n copies of v.
func fill(n int, v float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// gemmPaths are the two tiles behind GemmBiasActF32: the assembly one
// where this build and CPU have it, and the pure-Go one.
var gemmPaths = []struct {
	name string
	simd bool
}{{"simd", true}, {"go", false}}

// useGemmPath selects a tile for the rest of the test, or skips the test
// where the SIMD tile does not exist.
func useGemmPath(tb testing.TB, simd bool) {
	tb.Helper()
	if simd && !haveSIMDF32 {
		tb.Skip("no SIMD tile in this build or on this CPU")
	}
	prev := simdF32
	simdF32 = simd
	tb.Cleanup(func() { simdF32 = prev })
}

// TestGemmF32ShapeClasses runs one case per shape class through both
// tiles and checks each against a literal expected output and against
// gemmRefF32. The asm tile covers the first k - k mod 8 elements; the Go
// epilogue covers the k tail, the n mod 4 columns, bias and ReLU.
func TestGemmF32ShapeClasses(t *testing.T) {
	cases := []struct {
		name    string
		m, k, n int
		a, w    []float32
		bias    []float32
		act     Act
		want    []float32
	}{
		{
			name: "k0_epilogue_only",
			m:    3, k: 0, n: 5,
			bias: []float32{-2, -0.5, 0, 0.5, 2},
			act:  ActReLU,
			want: []float32{
				0, 0, 0, 0.5, 2,
				0, 0, 0, 0.5, 2,
				0, 0, 0, 0.5, 2,
			},
		},
		{
			name: "k3_below_one_block",
			m:    2, k: 3, n: 4,
			a: []float32{1, 2, 3, -1, 0, 2},
			w: []float32{1, 0, -1, 2, 1, 0, 0, 0.5, 0.25, -1, -1, -1},
			want: []float32{
				-2, 4, 1.75, -6,
				-3, -2, 0.5, -1,
			},
		},
		{
			name: "k8_one_block",
			m:    2, k: 8, n: 4,
			a: []float32{1, 2, 3, 4, 5, 6, 7, 8, 8, -7, 6, -5, 4, -3, 2, -1},
			w: []float32{
				1, 1, 1, 1, 1, 1, 1, 1,
				1, 0, 0, 0, 0, 0, 0, 0,
				0, 0, 0, 0, 0, 0, 0, 1,
				0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5,
			},
			bias: []float32{1, 2, 3, 4},
			want: []float32{
				37, 3, 11, 2,
				5, 10, 2, 22,
			},
		},
		{
			name: "k9_odd_m",
			m:    3, k: 9, n: 4,
			a: ramp(27, 3, 13), w: ramp(36, 5, 17),
			want: []float32{
				1.1875, -0.625, -0.3125, -5.3125,
				4.5625, -5.3125, -0.3125, -0.625,
				5.5, 1.375, -2.75, 1.625,
			},
		},
		{
			name: "k121_nsl_width",
			m:    3, k: 121, n: 5,
			a: ramp(363, 3, 13), w: ramp(605, 5, 17),
			bias: []float32{0.5, -0.5, 1, -1, 2},
			want: []float32{
				-10.375, 18.875, -17.375, 17.25, -11.125,
				-4.8125, 7.75, -15.4375, 17.375, -12.8125,
				-0.875, 0.6875, -3.75, 5.3125, -7.1875,
			},
		},
		{
			name: "k196_unsw_width_relu",
			m:    2, k: 196, n: 6,
			a: ramp(392, 3, 13), w: ramp(1176, 5, 17),
			bias: []float32{0.5, -0.5, 1, -1, 2, -2},
			act:  ActReLU,
			want: []float32{
				0, 8.25, 0.3125, 2.6875, 4.75, 0,
				8.625, 0, 0, 9.4375, 0, 4.3125,
			},
		},
		{
			name: "n7_column_remainder",
			m:    2, k: 16, n: 7,
			a: ramp(32, 3, 13), w: ramp(112, 5, 17),
			want: []float32{
				-1.875, 0.9375, 5.875, -4.0625, -7.625, 4.75, 2.25,
				-7.375, -2.5625, 4.375, 0.6875, -0.875, -0.3125, 3.4375,
			},
		},
		{
			name: "zero_panel",
			m:    3, k: 24, n: 5,
			a: fill(72, 0), w: ramp(120, 5, 17),
			bias: []float32{-1.5, 0, 1.5, 3, -3},
			want: []float32{
				-1.5, 0, 1.5, 3, -3,
				-1.5, 0, 1.5, 3, -3,
				-1.5, 0, 1.5, 3, -3,
			},
		},
		{
			name: "all_negative_relu",
			m:    2, k: 16, n: 4,
			a: fill(32, 0.5), w: fill(64, -0.25),
			bias: []float32{1, 0.5, 0, -1},
			act:  ActReLU,
			want: []float32{
				0, 0, 0, 0,
				0, 0, 0, 0,
			},
		},
	}
	for _, tc := range cases {
		for _, path := range gemmPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				useGemmPath(t, path.simd)
				got := make([]float32, tc.m*tc.n)
				GemmBiasActF32(got, tc.a, tc.w, tc.bias, tc.m, tc.k, tc.n, tc.act)
				ref := gemmRefF32(tc.a, tc.w, tc.bias, tc.m, tc.k, tc.n, tc.act)
				if len(tc.want) != len(got) {
					t.Fatalf("case lists %d outputs, shape has %d", len(tc.want), len(got))
				}
				for i := range got {
					if got[i] != tc.want[i] || ref[i] != tc.want[i] {
						t.Fatalf("[%d,%d] = %v (reference %v), want %v", i/tc.n, i%tc.n, got[i], ref[i], tc.want[i])
					}
				}
			})
		}
	}
}

// BenchmarkGemmF32 times the two GEMM shapes a CNN+GRU block lowers to at
// the UNSW width (the ledger's tensor.gemm_* rows: 32 rows, F = 196) on
// both tiles and reports GFLOP/s.
func BenchmarkGemmF32(b *testing.B) {
	const rows, f = 32, 196
	shapes := []struct {
		name string
		n    int
		act  Act
	}{{"conv", f, ActReLU}, {"gru", 2 * f, ActNone}}
	for _, sh := range shapes {
		for _, path := range gemmPaths {
			b.Run(sh.name+"/"+path.name, func(b *testing.B) {
				useGemmPath(b, path.simd)
				rng := rand.New(rand.NewSource(1))
				a, w, bias := randF32(rng, rows*f), randF32(rng, f*sh.n), randF32(rng, sh.n)
				dst := make([]float32, rows*sh.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemmBiasActF32(dst, a, w, bias, rows, f, sh.n, sh.act)
				}
				b.ReportMetric(2*float64(rows*f*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// TestGemmF32SIMDBitsUnchanged pins the SIMD path's output bits on seeded
// shapes at the serving widths: an FNV-1a hash of every output's float32
// bits. The hashes were recorded before the bias and ReLU moved into the
// assembly row kernels, so a kernel change that moves any output by one
// ulp — a reordered sum, an FMA where there was a multiply and an add —
// fails here.
func TestGemmF32SIMDBitsUnchanged(t *testing.T) {
	useGemmPath(t, true)
	cases := []struct {
		m, k, n int
		bias    bool
		act     Act
		want    uint64
	}{
		{32, 196, 196, true, ActReLU, 0x6ce088df193d69b9},
		{32, 196, 392, true, ActNone, 0xadbab35637f95997},
		{33, 121, 242, false, ActNone, 0xed5dc184e454d5ea},
		{7, 9, 10, true, ActReLU, 0x2449918205722090},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(tc.m*1000 + tc.k)))
		a, w := randF32(rng, tc.m*tc.k), randF32(rng, tc.k*tc.n)
		var bias []float32
		if tc.bias {
			bias = randF32(rng, tc.n)
		}
		dst := make([]float32, tc.m*tc.n)
		GemmBiasActF32(dst, a, w, bias, tc.m, tc.k, tc.n, tc.act)
		h := fnv.New64a()
		var b [4]byte
		for _, v := range dst {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%d×%d×%d bias=%v act=%d: hash %#x, want %#x", tc.m, tc.k, tc.n, tc.bias, tc.act, got, tc.want)
		}
	}
}

// TestGemmF32ReLUPassesNaN pins the activation's edge cases on both
// paths: ReLU keeps a NaN sum NaN and maps −Inf to 0, exactly as
// relu32 does, in the 4-column tiles and in the n mod 4 columns.
func TestGemmF32ReLUPassesNaN(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	m, k, n := 3, 9, 5
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.simd)
			a := fill(m*k, 1)
			a[0] = nan  // row 0: every column NaN
			a[k] = -inf // row 1: every column −Inf
			w := fill(k*n, 0.5)
			got := make([]float32, m*n)
			GemmBiasActF32(got, a, w, fill(n, -1), m, k, n, ActReLU)
			for j := 0; j < n; j++ {
				if v := got[j]; v == v {
					t.Fatalf("row 0 col %d = %v, want NaN", j, v)
				}
				if v := got[n+j]; v != 0 || math.Signbit(float64(v)) {
					t.Fatalf("row 1 col %d = %v, want +0", j, v)
				}
				if v := got[2*n+j]; v != 3.5 {
					t.Fatalf("row 2 col %d = %v, want 3.5", j, v)
				}
			}
		})
	}
}
