package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// gemmRefF32 is the naive float64-accumulating reference the f32 kernels
// are checked against. w is (n, k): one row per output column; packNK
// turns it into the kernels' panel layout.
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

// packNK packs an (n, k) float32 matrix — one row per output column — into
// the panel layout GemmBiasActF32 reads.
func packNK(w []float32, k, n int) []float32 {
	kn := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			kn[p*n+j] = float64(w[j*k+p])
		}
	}
	return PackPanelsF32(kn, k, n)
}

// gemmInOrderF32 is the kernels' numerics written out one output at a
// time, w read (n, k): the sum starts at 0 and takes fma32 for p = 0…k−1
// in order, then the bias, then the ReLU.
func gemmInOrderF32(a, w, bias []float32, m, k, n int, act Act) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s = fma32(a[i*k+p], w[j*k+p], s)
			}
			if bias != nil {
				s += bias[j]
			}
			if act == ActReLU {
				s = relu32(s)
			}
			out[i*n+j] = s
		}
	}
	return out
}

// epilogue applies gemmInOrderF32's bias and activation to its sums.
func epilogue(sums, bias []float32, n int, act Act) []float32 {
	out := make([]float32, len(sums))
	for i, s := range sums {
		if bias != nil {
			s += bias[i%n]
		}
		if act == ActReLU {
			s = relu32(s)
		}
		out[i] = s
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
// boundaries (row remainders, narrow last panels, tiny k) and both
// epilogues, through every path.
func TestGemmF32MatchesReferenceOddShapes(t *testing.T) {
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.isa)
			rng := rand.New(rand.NewSource(7))
			for _, m := range []int{1, 2, 3, 5, 17, 64} {
				for _, k := range []int{1, 7, 8, 33} {
					for _, n := range []int{1, 3, 4, 5, 19, 64} {
						a := randF32(rng, m*k)
						w := randF32(rng, k*n)
						pw := packNK(w, k, n)
						bias := randF32(rng, n)
						for _, act := range []Act{ActNone, ActReLU} {
							for _, bi := range [][]float32{nil, bias} {
								want := gemmRefF32(a, w, bi, m, k, n, act)
								got := make([]float32, m*n)
								GemmBiasActF32(got, a, pw, bi, m, k, n, act)
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
// bit-identical whether it runs in a full tile or in a remainder tile: a
// record's score must not depend on the size of the batch it arrived in,
// nor on where in the batch it sits.
func TestGemmF32RowIndependentOfBatchPosition(t *testing.T) {
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.isa)
			rng := rand.New(rand.NewSource(5))
			m, k, n := 15, 196, 42 // 8 + 4 + 2 + 1 rows, a full and a narrow panel
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
			useGemmPath(t, path.isa)
			rng := rand.New(rand.NewSource(11))
			m, k, n := 96, 128, 96
			a := randF32(rng, m*k)
			w := randF32(rng, k*n)
			want := gemmRefF32(a, w, nil, m, k, n, ActNone)
			got := make([]float32, m*n)
			GemmBiasActF32(got, a, packNK(w, k, n), nil, m, k, n, ActNone)
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

// gemmPaths are the implementations behind GemmBiasActF32: "simd" is the
// widest assembly tile this CPU has (AVX-512 where it has it), "avx2" the
// AVX2 tile, "go" the pure-Go loop.
var gemmPaths = []struct {
	name string
	isa  isa
}{{"simd", max(bestISA, isaAVX2)}, {"avx2", isaAVX2}, {"go", isaGo}}

// useGemmPath selects an implementation for the rest of the test, or skips
// the test where this build or CPU lacks it.
func useGemmPath(tb testing.TB, level isa) {
	tb.Helper()
	if level > bestISA {
		tb.Skip("no such kernel in this build or on this CPU")
	}
	prev := isaF32
	isaF32 = level
	tb.Cleanup(func() { isaF32 = prev })
}

// TestGemmF32ShapeClasses runs one case per shape class through every
// path and checks each against a literal expected output and against
// gemmRefF32. w is written (n, k), one row per output column.
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
				useGemmPath(t, path.isa)
				got := make([]float32, tc.m*tc.n)
				GemmBiasActF32(got, tc.a, packNK(tc.w, tc.k, tc.n), tc.bias, tc.m, tc.k, tc.n, tc.act)
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
// every path and reports GFLOP/s.
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
				useGemmPath(b, path.isa)
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

// TestGemmF32SIMDBitsUnchanged pins every path's output bits on seeded
// shapes at the serving widths: an FNV-1a hash of every output's float32
// bits, w read as packed panels. The hashes were recorded when the kernels
// moved to one in-order FMA sum per output, so a kernel change that moves
// any output by one ulp — a reordered sum, a multiply and an add where
// there was an FMA — fails here, on whichever path it made.
func TestGemmF32SIMDBitsUnchanged(t *testing.T) {
	cases := []struct {
		m, k, n int
		bias    bool
		act     Act
		want    uint64
	}{
		{32, 196, 196, true, ActReLU, 0x042a02308ac17c3d},
		{32, 196, 392, true, ActNone, 0x6210d525463fb08f},
		{33, 121, 242, false, ActNone, 0x85e8fb72c557519b},
		{7, 9, 10, true, ActReLU, 0xecb05642789c08dd},
	}
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.isa)
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
		})
	}
}

// TestGemmF32ReLUPassesNaN pins the activation's edge cases on every
// path: ReLU keeps a NaN sum NaN and maps −Inf to 0, exactly as relu32
// does, in full and remainder row tiles.
func TestGemmF32ReLUPassesNaN(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	m, k, n := 3, 9, 5
	for _, path := range gemmPaths {
		t.Run(path.name, func(t *testing.T) {
			useGemmPath(t, path.isa)
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

// TestGemmF32PathsBitIdentical runs every path over shapes across each row
// tile and remainder (m), empty and short sums and the serving widths (k),
// and panel edges (n), with and without bias and ReLU, and requires the
// bits of gemmInOrderF32 from each. The pure-Go path, by far the slowest,
// takes one of the four epilogues per shape in turn.
func TestGemmF32PathsBitIdentical(t *testing.T) {
	var ms, ns []int
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 32, 33)
	for n := 1; n <= 33; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 63, 64, 65, 121, 196, 242, 392)
	rng := rand.New(rand.NewSource(17))
	shape := 0
	for _, k := range []int{0, 1, 7, 8, 9, 31, 32, 33, 121, 196} {
		for _, n := range ns {
			w := randF32(rng, k*n)
			pw, bias := packNK(w, k, n), randF32(rng, n)
			for _, m := range ms {
				a := randF32(rng, m*k)
				sums := gemmInOrderF32(a, w, nil, m, k, n, ActNone)
				shape++
				for variant := 0; variant < 4; variant++ {
					act, bi := Act(variant&1), bias
					if variant&2 == 0 {
						bi = nil
					}
					requireInOrder(t, epilogue(sums, bi, n, act), a, pw, bi, m, k, n, act, variant == shape%4)
				}
			}
		}
	}
}

// requireInOrder runs GemmBiasActF32 on every path this CPU has (the
// pure-Go one only if withGo) and requires want's bits, NaN for NaN.
func requireInOrder(t *testing.T, want, a, pw, bias []float32, m, k, n int, act Act, withGo bool) {
	t.Helper()
	defer func(prev isa) { isaF32 = prev }(isaF32)
	for _, path := range gemmPaths {
		if path.isa > bestISA || path.isa == isaGo && !withGo {
			continue
		}
		isaF32 = path.isa
		got := make([]float32, m*n)
		GemmBiasActF32(got, a, pw, bias, m, k, n, act)
		for i := range want {
			if !sameF32(got[i], want[i]) {
				t.Fatalf("%s m=%d k=%d n=%d act=%d bias=%v: [%d,%d] = %#x, in order %#x",
					path.name, m, k, n, act, bias != nil, i/n, i%n, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// FuzzGemmF32 runs every path on random shapes and values, with NaN, ±Inf,
// ±0, subnormals, the largest float32 and raw bit patterns placed by the
// input, and requires the bits of gemmInOrderF32 from each (any NaN for a
// NaN: payloads differ between the FPU and Go).
func FuzzGemmF32(f *testing.F) {
	f.Add(uint8(9), uint8(33), uint8(65), int64(1), []byte{0, 0, 1, 5, 2, 9, 3, 14})
	f.Add(uint8(1), uint8(0), uint8(1), int64(2), []byte{})
	f.Add(uint8(15), uint8(7), uint8(16), int64(3), []byte{4, 0, 5, 1, 6, 2, 7, 3, 8, 0x80, 0x7f, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, seed int64, special []byte) {
		m, k, n := int(mb%20)+1, int(kb%70), int(nb%80)+1
		rng := rand.New(rand.NewSource(seed))
		a, w, bias := randF32(rng, m*k), randF32(rng, k*n), randF32(rng, n)
		vals := [][]float32{a, w, bias}
		// Each pair of bytes (kind, where) overwrites one value; kind 7
		// takes the next four bytes as raw bits.
		for len(special) >= 2 {
			kind, where := special[0]%8, int(special[1])
			special = special[2:]
			v := [...]float32{
				float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
				float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, math.MaxFloat32, 0,
			}[kind]
			if kind == 7 && len(special) >= 4 {
				v = math.Float32frombits(binary.LittleEndian.Uint32(special))
				special = special[4:]
			}
			if dst := vals[where%3]; len(dst) > 0 {
				dst[where/3%len(dst)] = v
			}
		}
		pw := packNK(w, k, n)
		for _, act := range []Act{ActNone, ActReLU} {
			for _, bi := range [][]float32{nil, bias} {
				requireInOrder(t, gemmInOrderF32(a, w, bi, m, k, n, act), a, pw, bi, m, k, n, act, true)
			}
		}
	})
}

// fmaVectors are float32 FMA cases (x, y, c, x·y + c rounded once). The
// first four round wrongly through float32(math.FMA(…)), whose float64 sum
// lands on a float32 tie; the last rounds wrongly as a multiply then an add.
var fmaVectors = [][4]uint32{
	{0x3f800001, 0x337ffffe, 0x3f800001, 0x3f800001},
	{0x3f800001, 0xb37ffffe, 0x3f800001, 0x3f800001},
	{0x3f800001, 0xb37ffffe, 0xbf800001, 0xbf800001},
	{0x3f800001, 0x33fffffe, 0x40000001, 0x40000001},
	{0x3f800800, 0x3f800800, 0xbf800000, 0x3a000400},
}

// TestFMA32Vectors pins fma32 and every GEMM path on fmaVectors: a 1×2×1
// product of a = [c, x] and w = [1, y] is fma(x, y, fma(c, 1, 0)), and
// fma(c, 1, 0) is c.
func TestFMA32Vectors(t *testing.T) {
	for _, v := range fmaVectors {
		x, y, c := math.Float32frombits(v[0]), math.Float32frombits(v[1]), math.Float32frombits(v[2])
		if got := math.Float32bits(fma32(x, y, c)); got != v[3] {
			t.Errorf("fma32(%#x, %#x, %#x) = %#x, want %#x", v[0], v[1], v[2], got, v[3])
		}
		if got := math.Float32bits(fmaBig(x, y, c)); got != v[3] {
			t.Errorf("math/big: %#x·%#x + %#x = %#x, want %#x", v[0], v[1], v[2], got, v[3])
		}
		for _, path := range gemmPaths {
			t.Run(path.name, func(t *testing.T) {
				useGemmPath(t, path.isa)
				dst := make([]float32, 1)
				GemmBiasActF32(dst, []float32{c, x}, []float32{1, y}, nil, 1, 2, 1, ActNone)
				if got := math.Float32bits(dst[0]); got != v[3] {
					t.Errorf("GEMM fma(%#x, %#x, %#x) = %#x, want %#x", v[0], v[1], v[2], got, v[3])
				}
			})
		}
	}
}

// fmaBig is x·y + c rounded once to float32, through math/big. x·y + c is
// exact at 2000 bits of precision, and Float32 rounds it to the nearest
// float32, subnormals included.
func fmaBig(x, y, c float32) float32 {
	prod := new(big.Float).SetPrec(2000).SetFloat64(float64(x))
	prod.Mul(prod, new(big.Float).SetFloat64(float64(y)))
	sum := new(big.Float).SetPrec(2000).Add(prod, new(big.Float).SetFloat64(float64(c)))
	if sum.Sign() == 0 {
		// An exact zero takes IEEE's sign rule, which float64 applies too.
		return float32(float64(x)*float64(y) + float64(c))
	}
	f, _ := sum.Float32()
	return f
}

// TestFMA32MatchesBig checks fma32 against math/big on finite inputs: raw
// bit patterns across the whole exponent range, and products placed within
// an ulp of half an ulp of c, where a second rounding would show.
func TestFMA32MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	finite := func() float32 {
		for {
			if v := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				return v
			}
		}
	}
	for i := 0; i < 20000; i++ {
		x, y, c := finite(), finite(), finite()
		if i%2 == 1 {
			// c in [1, 2) and x·y within a few ulps of ±ulp(c)/2.
			c = math.Float32frombits(0x3f800000 | rng.Uint32()&0x7fffff)
			x = math.Float32frombits(0x3f800000 | rng.Uint32()&0x7fffff)
			y = math.Float32frombits(0x33000000|rng.Uint32()&0x7fffff) / x
			if rng.Intn(2) == 0 {
				y = -y
			}
		}
		if got, want := fma32(x, y, c), fmaBig(x, y, c); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%#x, %#x, %#x) = %#x, math/big %#x", math.Float32bits(x), math.Float32bits(y),
				math.Float32bits(c), math.Float32bits(got), math.Float32bits(want))
		}
	}
}
