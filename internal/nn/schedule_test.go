package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestConstantLR(t *testing.T) {
	var s ConstantLR
	if s.Factor(1, 10) != 1 || s.Factor(10, 10) != 1 {
		t.Fatal("ConstantLR must always return 1")
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{StepEpochs: 3, Gamma: 0.5}
	cases := []struct {
		epoch int
		want  float64
	}{
		{1, 1}, {3, 1}, {4, 0.5}, {6, 0.5}, {7, 0.25}, {10, 0.125},
	}
	for _, c := range cases {
		if got := s.Factor(c.epoch, 10); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("StepDecay.Factor(%d) = %v, want %v", c.epoch, got, c.want)
		}
	}
	// Degenerate config is a no-op.
	if (StepDecay{}).Factor(5, 10) != 1 {
		t.Fatal("zero StepDecay should be identity")
	}
}

func TestCosineDecayEndpoints(t *testing.T) {
	s := CosineDecay{Floor: 0.1}
	if got := s.Factor(1, 20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cosine start %v, want 1", got)
	}
	if got := s.Factor(20, 20); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("cosine end %v, want 0.1", got)
	}
	mid := s.Factor(10, 20)
	if mid <= 0.1 || mid >= 1 {
		t.Fatalf("cosine midpoint %v outside (0.1, 1)", mid)
	}
	// Monotone decreasing.
	prev := 2.0
	for ep := 1; ep <= 20; ep++ {
		f := s.Factor(ep, 20)
		if f > prev+1e-12 {
			t.Fatalf("cosine not monotone at epoch %d", ep)
		}
		prev = f
	}
}

func TestWarmupThenCosine(t *testing.T) {
	s := WarmupThenCosine{WarmupEpochs: 4, Floor: 0.05}
	if got := s.Factor(2, 20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("warmup factor at epoch 2 = %v, want 0.5", got)
	}
	if got := s.Factor(4, 20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("warmup factor at epoch 4 = %v, want 1", got)
	}
	if got := s.Factor(20, 20); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("final factor %v, want 0.05", got)
	}
}

func TestScheduleAppliedDuringFit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stack := NewSequential(NewDense(rng, 2, 2))
	opt := NewRMSprop(0.01)
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), opt)
	x := tensor.RandNormal(rng, 0, 1, 8, 2)
	y := []int{0, 1, 0, 1, 0, 1, 0, 1}
	var perEpochLR []float64
	net.Fit(x, y, FitConfig{
		Epochs: 4, BatchSize: 8,
		Schedule: StepDecay{StepEpochs: 2, Gamma: 0.1},
		Verbose:  func(EpochStats) { perEpochLR = append(perEpochLR, opt.LR) },
	})
	// Epochs 1-2 run at factor 1, epochs 3-4 at factor 0.1.
	want := []float64{0.01, 0.01, 0.001, 0.001}
	for i, w := range want {
		if math.Abs(perEpochLR[i]-w) > 1e-12 {
			t.Fatalf("epoch %d ran at LR %v, want %v", i+1, perEpochLR[i], w)
		}
	}
	// The decay must not leak past Fit: the base rate is restored for
	// subsequent Fit/PartialFit calls.
	if math.Abs(opt.LR-0.01) > 1e-12 {
		t.Fatalf("LR %v after Fit, want base 0.01 restored", opt.LR)
	}
}

func TestEarlyStoppingHalts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	stack := NewSequential(NewDense(rng, 3, 2))
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), NewSGD(0, 0)) // LR 0: no progress
	x := tensor.RandNormal(rng, 0, 1, 16, 3)
	y := make([]int, 16)
	stats := net.Fit(x, y, FitConfig{
		Epochs: 50, BatchSize: 8,
		TestX: x, TestLabels: y,
		Patience: 3,
	})
	// Loss never improves after the first epoch, so training stops after
	// 1 + Patience epochs.
	if len(stats) > 5 {
		t.Fatalf("early stopping did not halt: ran %d epochs", len(stats))
	}
}

func TestEarlyStoppingDisabledWithoutTestSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stack := NewSequential(NewDense(rng, 2, 2))
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), NewSGD(0, 0))
	x := tensor.RandNormal(rng, 0, 1, 8, 2)
	y := make([]int, 8)
	stats := net.Fit(x, y, FitConfig{Epochs: 10, BatchSize: 8, Patience: 2})
	if len(stats) != 10 {
		t.Fatalf("patience without TestX should not stop: ran %d epochs", len(stats))
	}
}

// ConstantLR keeps the base rate throughout.
type ConstantLR struct{}

// Factor implements LRSchedule.
func (ConstantLR) Factor(int, int) float64 { return 1 }

// StepDecay multiplies the rate by Gamma every StepEpochs.
type StepDecay struct {
	StepEpochs int
	Gamma      float64
}

// Factor implements LRSchedule.
func (s StepDecay) Factor(epoch, _ int) float64 {
	if s.StepEpochs <= 0 || s.Gamma <= 0 {
		return 1
	}
	return math.Pow(s.Gamma, float64((epoch-1)/s.StepEpochs))
}

// WarmupThenCosine ramps linearly for WarmupEpochs then cosine-anneals.
type WarmupThenCosine struct {
	WarmupEpochs int
	Floor        float64
}

// Factor implements LRSchedule.
func (w WarmupThenCosine) Factor(epoch, totalEpochs int) float64 {
	if w.WarmupEpochs > 0 && epoch <= w.WarmupEpochs {
		return float64(epoch) / float64(w.WarmupEpochs)
	}
	rest := totalEpochs - w.WarmupEpochs
	if rest <= 1 {
		return 1
	}
	progress := float64(epoch-w.WarmupEpochs-1) / float64(rest-1)
	return w.Floor + (1-w.Floor)*0.5*(1+math.Cos(math.Pi*progress))
}
