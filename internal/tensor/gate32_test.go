package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameF32 reports whether a and b have the same bits, or are both NaN.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// gateEdges are inputs at every boundary of TanhF32 and hardSigmoid32:
// signed zeros, both sides of the tiny cutoff and of the clamp, the
// hard-sigmoid knees at ±2.5, infinities and NaN.
var gateEdges = func() []float32 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	var out []float32
	for _, v := range []float32{
		0, tanhTiny, math.Nextafter32(tanhTiny, 0), math.Nextafter32(tanhTiny, 1),
		tanhClamp, math.Nextafter32(tanhClamp, 0), math.Nextafter32(tanhClamp, 10), 7.9054, 8, 20,
		2.5, math.Nextafter32(2.5, 0), math.Nextafter32(2.5, 3), 1e-30, 0.5, 1, 3, 1e30, inf,
	} {
		out = append(out, v, -v)
	}
	return append(out, nan)
}()

// TestGRUGateF32SIMDMatchesGo runs the gate through the assembly kernel
// and through the scalar code on the same rows and requires the same
// bits (NaN for NaN), at widths below, at and around one 8-lane block
// and at the serving widths, with every edge value in both halves.
func TestGRUGateF32SIMDMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, h := range []int{1, 4, 7, 8, 9, 121, 196} {
		t.Run(fmt.Sprintf("h%d", h), func(t *testing.T) {
			const rows = 3
			src := randF32(rng, rows*2*h)
			for i := range src {
				if i%3 == 0 {
					src[i] = gateEdges[rng.Intn(len(gateEdges))]
				}
			}
			// Every edge value as z and as h~ at least once where h allows.
			for i, v := range gateEdges {
				if i < rows*h {
					r, j := i/h, i%h
					src[r*2*h+j] = v
					src[r*2*h+h+(h-1-j)] = v
				}
			}
			want, got := make([]float32, rows*h), make([]float32, rows*h)
			useGemmPath(t, isaAVX2)
			GRUGateF32(got, src, h)
			isaF32 = isaGo
			GRUGateF32(want, src, h)
			for i := range want {
				r, j := i/h, i%h
				if !sameF32(got[i], want[i]) {
					t.Fatalf("[%d,%d] z=%v h~=%v: simd %v (%#x), go %v (%#x)", r, j,
						src[r*2*h+j], src[r*2*h+h+j], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		})
	}
}

// TestTanhF32Edges pins the scalar tanh and hard sigmoid at their
// boundaries: zeros keep their sign, tiny inputs return themselves,
// everything at or past the clamp returns the clamp's value, which does
// not exceed 1, and NaN stays NaN.
func TestTanhF32Edges(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	if v := TanhF32(negZero); math.Float32bits(v) != math.Float32bits(negZero) {
		t.Fatalf("TanhF32(-0) = %v, want -0", v)
	}
	if v := math.Nextafter32(tanhTiny, 0); TanhF32(v) != v || TanhF32(-v) != -v {
		t.Fatalf("TanhF32(±%v) = %v, %v: below the tiny cutoff tanh returns x", v, TanhF32(v), TanhF32(-v))
	}
	top := TanhF32(tanhClamp)
	if top > 1 || top < 1-1e-6 {
		t.Fatalf("TanhF32(clamp) = %v, want within 1e-6 below 1", top)
	}
	for _, v := range []float32{math.Nextafter32(tanhClamp, 10), 8, 20, float32(math.Inf(1))} {
		if TanhF32(v) != top || TanhF32(-v) != -top {
			t.Fatalf("TanhF32(±%v) = %v, %v, want ±%v", v, TanhF32(v), TanhF32(-v), top)
		}
	}
	nan := float32(math.NaN())
	if v := TanhF32(nan); v == v {
		t.Fatalf("TanhF32(NaN) = %v", v)
	}
	if v := hardSigmoid32(nan); v == v {
		t.Fatalf("hardSigmoid32(NaN) = %v", v)
	}
	for _, c := range []struct{ in, want float32 }{{-3, 0}, {-2.5, 0}, {0, 0.5}, {2.5, 1}, {3, 1}} {
		if got := hardSigmoid32(c.in); got != c.want {
			t.Fatalf("hardSigmoid32(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTanhF32Accuracy sweeps [−20, 20] in 1e-5 steps: the scalar tanh is
// within 5e-7 of math.Tanh everywhere, and the assembly gate, fed z = −10
// so that 1 − hardsig(z) = 1, returns the scalar's bits at every point.
func TestTanhF32Accuracy(t *testing.T) {
	const lo, step, n = -20.0, 1e-5, 4_000_001
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(lo + float64(i)*step)
	}
	worst, at := 0.0, float32(0)
	for _, v := range a {
		if d := math.Abs(float64(TanhF32(v)) - math.Tanh(float64(v))); d > worst {
			worst, at = d, v
		}
	}
	if worst > 5e-7 {
		t.Fatalf("max |TanhF32 − math.Tanh| = %.3g at %v, want ≤ 5e-7", worst, at)
	}
	t.Logf("max |TanhF32 − math.Tanh| = %.3g at %v", worst, at)
	if bestISA < isaAVX2 {
		return
	}
	useGemmPath(t, isaAVX2)
	src := make([]float32, 2*n)
	for i := range a {
		src[i] = -10
	}
	copy(src[n:], a)
	dst := make([]float32, n)
	GRUGateF32(dst, src, n)
	for i, v := range a {
		if want := TanhF32(v); math.Float32bits(dst[i]) != math.Float32bits(want) {
			t.Fatalf("tanh(%v): simd %v, scalar %v", v, dst[i], want)
		}
	}
}

// BenchmarkGRUGateF32 times one GRU gate pass at the UNSW width (32 rows,
// H = 196) on both paths.
func BenchmarkGRUGateF32(b *testing.B) {
	const rows, h = 32, 196
	for _, path := range []struct {
		name string
		isa  isa
	}{{"simd", isaAVX2}, {"go", isaGo}} {
		b.Run(path.name, func(b *testing.B) {
			useGemmPath(b, path.isa)
			rng := rand.New(rand.NewSource(1))
			src, dst := randF32(rng, rows*2*h), make([]float32, rows*h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GRUGateF32(dst, src, h)
			}
			b.ReportMetric(float64(rows*h)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gelem/s")
		})
	}
}
