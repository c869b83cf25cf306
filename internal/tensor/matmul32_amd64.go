//go:build amd64 && !purego

package tensor

import "math"

// haveSIMDF32 reports whether the CPU has AVX2 and FMA and the OS saves
// the YMM registers across context switches.
var haveSIMDF32 = cpuHasAVX2FMA()

// cpuHasAVX2FMA checks CPUID for AVX, AVX2, FMA and OSXSAVE, and XGETBV
// for OS-enabled XMM and YMM state.
//
//pelican:noalloc
func cpuHasAVX2FMA() bool

// gemmRows2F32 computes columns [0, n &^ 3) of two rows of
// dst = act(a @ wᵀ + bias): a holds the rows (stride k), w the weight
// rows (stride k), dst the output rows (stride n). bias may be nil; relu
// selects ActReLU. The k loop accumulates in eight 8-lane FMA registers
// over k &^ 7; the tail, bias and ReLU run in registers after the
// horizontal reduction, one multiply and one add at a time.
//
//go:noescape
//pelican:noalloc
func gemmRows2F32(dst, a, w, bias []float32, k, n int, relu bool)

// gemmRow1F32 is gemmRows2F32 for one row, with the same lane order,
// reduction and epilogue, so a row's outputs are bit-identical in either
// kernel.
//
//go:noescape
//pelican:noalloc
func gemmRow1F32(dst, a, w, bias []float32, k, n int, relu bool)

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
