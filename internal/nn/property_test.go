package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// TestPropSoftmaxShiftInvariant: softmax(x + c) == softmax(x) per row.
func TestPropSoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, c := 1+rng.Intn(6), 2+rng.Intn(6)
		x := tensor.RandNormal(rng, 0, 3, b, c)
		shift := rng.NormFloat64() * 50
		shifted := x.Map(func(v float64) float64 { return v + shift })
		for r := 0; r < b; r++ {
			softmaxRow(x.Row(r))
			softmaxRow(shifted.Row(r))
		}
		return tensor.ApproxEqual(x, shifted, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropReLUIdempotent: relu(relu(x)) == relu(x).
func TestPropReLUIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandNormal(rng, 0, 2, 3, 1+rng.Intn(10))
		r1 := NewReLU().Forward(x, false)
		r2 := NewReLU().Forward(r1, false)
		return tensor.ApproxEqual(r1, r2, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropTanhOddFunction: tanh(−x) == −tanh(x).
func TestPropTanhOddFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.RandNormal(rng, 0, 2, 2, 1+rng.Intn(8))
		neg := x.Map(func(v float64) float64 { return -v })
		a := NewTanh().Forward(x, false).Map(func(v float64) float64 { return -v })
		b := NewTanh().Forward(neg, false)
		return tensor.ApproxEqual(a, b, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropDropoutPreservesExpectation: inverted dropout keeps E[x] within
// sampling error.
func TestPropDropoutPreservesExpectation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := 0.2 + 0.6*rng.Float64()
		l := NewDropout(rand.New(rand.NewSource(seed+1)), rate)
		x := tensor.Ones(1, 20000)
		out := l.Forward(x, true)
		return math.Abs(out.Mean()-1) < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropMaxPoolDominance: every pooled output is >= the inputs it
// covers' minimum and equals one of them.
func TestPropMaxPoolDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, tt, c := 1+rng.Intn(3), 2+rng.Intn(10), 1+rng.Intn(4)
		pool := 1 + rng.Intn(4)
		x := tensor.RandNormal(rng, 0, 5, b, tt, c)
		out := NewMaxPool1D(pool).Forward(x, false)
		to := out.Dim(1)
		for bi := 0; bi < b; bi++ {
			for t0 := 0; t0 < to; t0++ {
				lo := t0 * pool
				hi := lo + pool
				if hi > tt {
					hi = tt
				}
				for ci := 0; ci < c; ci++ {
					v := out.At(bi, t0, ci)
					found := false
					for ti := lo; ti < hi; ti++ {
						in := x.At(bi, ti, ci)
						if in > v {
							return false // output below an input it covers
						}
						if in == v {
							found = true
						}
					}
					if !found {
						return false // output is not any covered input
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropGlobalAvgPoolMeanPreserved: GAP output equals per-channel means.
func TestPropGlobalAvgPoolMeanPreserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, tt, c := 1+rng.Intn(4), 1+rng.Intn(8), 1+rng.Intn(5)
		x := tensor.RandNormal(rng, 0, 2, b, tt, c)
		out := NewGlobalAvgPool1D().Forward(x, false)
		for bi := 0; bi < b; bi++ {
			for ci := 0; ci < c; ci++ {
				mean := 0.0
				for ti := 0; ti < tt; ti++ {
					mean += x.At(bi, ti, ci)
				}
				mean /= float64(tt)
				if math.Abs(out.At(bi, ci)-mean) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropSequentialEqualsManualChain: Sequential(f, g) == g(f(x)).
func TestPropSequentialEqualsManualChain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		d1 := NewDense(rng, n, n+1)
		d2 := NewDense(rng, n+1, 2)
		seq := NewSequential(d1, NewTanh(), d2)
		x := tensor.RandNormal(rng, 0, 1, 3, n)
		got := seq.Forward(x, false)
		want := d2.Forward(NewTanh().Forward(d1.Forward(x, false), false), false)
		return tensor.ApproxEqual(got, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropOptimizerReducesConvexLoss: every optimizer decreases ||w||² on
// the quadratic within its first few steps.
func TestPropOptimizerReducesConvexLoss(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := []Optimizer{
			NewSGD(0.05, 0), NewSGD(0.02, 0.9), NewRMSprop(0.02), NewAdam(0.05),
		}
		opt := opts[rng.Intn(len(opts))]
		p := NewParam("w", tensor.RandNormal(rng, 0, 3, 4))
		start := p.Value.Norm2()
		if start == 0 {
			return true
		}
		for i := 0; i < 50; i++ {
			p.Grad.CopyFrom(p.Value)
			opt.Step([]*Param{p})
		}
		return p.Value.Norm2() < start
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
