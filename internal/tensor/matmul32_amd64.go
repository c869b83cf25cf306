//go:build amd64 && !purego

package tensor

// haveSIMDF32 reports whether the CPU has AVX2 and FMA and the OS saves
// the YMM registers across context switches.
var haveSIMDF32 = cpuHasAVX2FMA()

// cpuHasAVX2FMA checks CPUID for AVX, AVX2, FMA and OSXSAVE, and XGETBV
// for OS-enabled XMM and YMM state.
//
//pelican:noalloc
func cpuHasAVX2FMA() bool

// dotTile2x4F32 sets out[4r+c] to the dot product of input row r (a, then
// a+ld) with weight row c (w, w+ld, w+2·ld, w+3·ld) over their first k8
// elements. k8 must be a positive multiple of 8 and ld the row stride in
// elements.
//
//go:noescape
//pelican:noalloc
func dotTile2x4F32(a, w *float32, k8, ld int, out *[8]float32)

// dotTile1x4F32 is dotTile2x4F32 for one input row, with the same lane
// order and reduction, so a row's sums are bit-identical in either tile.
//
//go:noescape
//pelican:noalloc
func dotTile1x4F32(a, w *float32, k8, ld int, out *[4]float32)
