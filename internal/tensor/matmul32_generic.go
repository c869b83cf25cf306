//go:build !amd64 || purego

package tensor

// haveSIMDF32 is false: this build has no assembly kernels, so simdF32
// stays false and the GEMM and the GRU gate only run their pure-Go code.
const haveSIMDF32 = false

//pelican:noalloc
func gemmRows2F32(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no SIMD kernel in this build")
}

//pelican:noalloc
func gemmRow1F32(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no SIMD kernel in this build")
}

//pelican:noalloc
func gruGate8F32(dst, z, a []float32) {
	panic("tensor: no SIMD kernel in this build")
}
