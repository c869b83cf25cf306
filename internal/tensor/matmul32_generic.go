//go:build !amd64 || purego

package tensor

// haveSIMDF32 is false: this build has no assembly tiles, so simdF32
// stays false and gemmBlockF32 only runs the pure-Go ones.
const haveSIMDF32 = false

//pelican:noalloc
func dotTile2x4F32(a, w *float32, k8, ld int, out *[8]float32) {
	panic("tensor: no SIMD tile in this build")
}

//pelican:noalloc
func dotTile1x4F32(a, w *float32, k8, ld int, out *[4]float32) {
	panic("tensor: no SIMD tile in this build")
}
