//go:build !amd64 || purego

package tensor

// bestISA is isaGo: this build has no assembly kernels, so the GEMM and
// the GRU gate only run their pure-Go code.
const bestISA = isaGo

//pelican:noalloc
func gemm8AVX512(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gemm4AVX512(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gemm2AVX512(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gemm1AVX512(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gemm2AVX2(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gemm1AVX2(dst, a, w, bias []float32, k, n int, relu bool) {
	panic("tensor: no assembly kernel in this build")
}

//pelican:noalloc
func gruGate8F32(dst, z, a []float32) {
	panic("tensor: no assembly kernel in this build")
}
