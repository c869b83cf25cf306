package tensor

// Float32 gate nonlinearities for the compiled inference engine's
// recurrent layers (internal/infer). At one timestep from zero state a
// GRU's hidden state is (1 − hardsig(z))·tanh(h~), one elementwise pass
// per GRU layer over the gate GEMM's packed [z | h~] output. On amd64
// CPUs with AVX2 (isaF32, the GEMM's dispatch) the pass runs eight lanes
// at a time in assembly (gate32_amd64.s); the h mod 8 tail, other
// architectures and the purego build run the scalar functions below,
// which use the same constants and the same order of float32 operations,
// so the two paths agree bit for bit.

// tanh is Eigen's float32 rational approximation (ptanh_float without
// FMA): an odd degree-13 numerator over an even degree-6 denominator in
// x clamped to ±tanhClamp, where the quotient rounds to ±1; below
// tanhTiny it returns x itself. Max error against math.Tanh over
// [−20, 20] is under 4e-7.
const (
	tanhClamp = 7.90531110763549805
	tanhTiny  = 0.0004

	tanhA1  = 4.89352455891786e-03
	tanhA3  = 6.37261928875436e-04
	tanhA5  = 1.48572235717979e-05
	tanhA7  = 5.12229709037114e-08
	tanhA9  = -8.60467152213735e-11
	tanhA11 = 2.00018790482477e-13
	tanhA13 = -2.76076847742355e-16

	tanhB0 = 4.89352518554385e-03
	tanhB2 = 2.26843463243900e-03
	tanhB4 = 1.18534705686654e-04
	tanhB6 = 1.19825839466702e-06
)

// GRUGateF32 combines packed (B, 2h) GRU pre-activations [z | h~] into
// (B, h) hidden states for zero initial state:
// dst = (1 − hardsig(z))·tanh(h~). dst must not alias src.
//
//pelican:noalloc
func GRUGateF32(dst, src []float32, h int) {
	h8 := 0
	if isaF32 >= isaAVX2 {
		h8 = h &^ 7
	}
	for r := 0; r*2*h < len(src); r++ {
		arow := src[r*2*h : (r+1)*2*h]
		drow := dst[r*h : (r+1)*h]
		if h8 > 0 {
			gruGate8F32(drow[:h8], arow[:h8], arow[h:h+h8])
		}
		for j := h8; j < h; j++ {
			drow[j] = (1 - hardSigmoid32(arow[j])) * TanhF32(arow[h+j])
		}
	}
}

// TanhF32 is the float32 tanh of the inference gates (see tanhClamp).
// NaN and ±0 pass through; ±Inf give ±1.
//
//pelican:noalloc
func TanhF32(v float32) float32 {
	if v > -tanhTiny && v < tanhTiny {
		return v
	}
	x := v
	if x > tanhClamp {
		x = tanhClamp
	}
	if x < -tanhClamp {
		x = -tanhClamp
	}
	// The float32 conversions round each product, so no platform may
	// fuse it into an FMA: the assembly uses VMULPS then VADDPS.
	x2 := float32(x * x)
	p := float32(x2*tanhA13) + tanhA11
	p = float32(x2*p) + tanhA9
	p = float32(x2*p) + tanhA7
	p = float32(x2*p) + tanhA5
	p = float32(x2*p) + tanhA3
	p = float32(x2*p) + tanhA1
	p = x * p
	q := float32(x2*tanhB6) + tanhB4
	q = float32(x2*q) + tanhB2
	q = float32(x2*q) + tanhB0
	return p / q
}

// hardSigmoid32 is Keras's piecewise-linear sigmoid max(0, min(1, 0.2x+0.5));
// NaN passes through.
//
//pelican:noalloc
func hardSigmoid32(v float32) float32 {
	y := float32(0.2*v) + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}
