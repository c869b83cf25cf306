//go:build amd64 && !purego

package tensor

import "math"

// bestISA is the widest kernel set the CPU has and the OS enables.
var bestISA = func() isa {
	switch {
	case !cpuHasAVX2FMA():
		return isaGo
	case cpuHasAVX512F():
		return isaAVX512
	}
	return isaAVX2
}()

// cpuHasAVX2FMA checks CPUID for AVX, AVX2, FMA and OSXSAVE, and XGETBV
// for OS-enabled XMM and YMM state.
//
//pelican:noalloc
func cpuHasAVX2FMA() bool

// cpuHasAVX512F checks CPUID for AVX512F and OSXSAVE, and XGETBV for
// OS-enabled XMM, YMM, opmask and ZMM state.
//
//pelican:noalloc
func cpuHasAVX512F() bool

// gemm8AVX512 computes 8 rows of dst = act(a @ w + bias) over every
// panel of w: a holds the rows (stride k), dst the output rows (stride
// n), w the panels (PackPanelsF32). bias may be nil; relu selects
// ActReLU. 16 ZMM registers hold the 8×32 tile.
//
//go:noescape
//pelican:noalloc
func gemm8AVX512(dst, a, w, bias []float32, k, n int, relu bool)

// gemm4AVX512 is gemm8AVX512 for 4 rows.
//
//go:noescape
//pelican:noalloc
func gemm4AVX512(dst, a, w, bias []float32, k, n int, relu bool)

// gemm2AVX512 is gemm8AVX512 for 2 rows.
//
//go:noescape
//pelican:noalloc
func gemm2AVX512(dst, a, w, bias []float32, k, n int, relu bool)

// gemm1AVX512 is gemm8AVX512 for 1 row.
//
//go:noescape
//pelican:noalloc
func gemm1AVX512(dst, a, w, bias []float32, k, n int, relu bool)

// gemm2AVX2 is gemm8AVX512 for 2 rows in AVX2 and FMA: 8 YMM registers
// hold the 2×32 tile.
//
//go:noescape
//pelican:noalloc
func gemm2AVX2(dst, a, w, bias []float32, k, n int, relu bool)

// gemm1AVX2 is gemm2AVX2 for 1 row.
//
//go:noescape
//pelican:noalloc
func gemm1AVX2(dst, a, w, bias []float32, k, n int, relu bool)

// gruGate8F32 sets dst[j] = (1 − hardSigmoid32(z[j]))·TanhF32(a[j]) for
// j < len(dst), a positive multiple of 8, bit-identical to the scalar
// functions (gate32_amd64.s).
//
//go:noescape
//pelican:noalloc
func gruGate8F32(dst, z, a []float32)

// gateK holds gruGate8F32's constants, each broadcast to eight lanes, in
// the order gate32_amd64.s addresses them.
var gateK = func() (k [18][8]float32) {
	for i, v := range [...]float32{
		tanhClamp, -tanhClamp, tanhTiny, math.Float32frombits(0x7fffffff),
		tanhA13, tanhA11, tanhA9, tanhA7, tanhA5, tanhA3, tanhA1,
		tanhB6, tanhB4, tanhB2, tanhB0,
		0.2, 0.5, 1,
	} {
		for l := range k[i] {
			k[i][l] = v
		}
	}
	return k
}()
