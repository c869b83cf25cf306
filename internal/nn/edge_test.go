package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Edge-case and failure-injection tests for the training loop and layers:
// degenerate batch sizes, single-class data, rank-3 fitting, and abusive
// inputs that must fail loudly rather than corrupt state.

func TestFitBatchLargerThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewSequential(NewDense(rng, 3, 2)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	x := tensor.RandNormal(rng, 0, 1, 5, 3)
	y := []int{0, 1, 0, 1, 0}
	stats := net.Fit(x, y, FitConfig{Epochs: 3, BatchSize: 100})
	if len(stats) != 3 {
		t.Fatalf("ran %d epochs, want 3", len(stats))
	}
}

// TestFitReleasesScratch pins that training does not leave its scratch
// pooled: a process that trained once and then serves would otherwise keep
// the training peak's working set for good.
func TestFitReleasesScratch(t *testing.T) {
	const big = 1<<16 + 1 // a size class this tiny net never asks for
	pooled := tensor.Scratch.Get(big)
	tensor.Scratch.Put(pooled)
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewSequential(NewDense(rng, 3, 2)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	net.Fit(tensor.RandNormal(rng, 0, 1, 4, 3), []int{0, 1, 0, 1}, FitConfig{Epochs: 1})
	got := tensor.Scratch.Get(big)
	defer tensor.Scratch.Put(got)
	if &got.Data()[0] == &pooled.Data()[0] {
		t.Fatal("tensor.Scratch still pools a tensor put before Fit returned")
	}
}

func TestFitBatchSizeOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(NewSequential(NewDense(rng, 2, 2)), NewSoftmaxCrossEntropy(), NewSGD(0.05, 0))
	x := tensor.RandNormal(rng, 0, 1, 6, 2)
	y := []int{0, 1, 0, 1, 0, 1}
	stats := net.Fit(x, y, FitConfig{Epochs: 2, BatchSize: 1})
	if len(stats) != 2 {
		t.Fatalf("ran %d epochs, want 2", len(stats))
	}
	for _, p := range net.Stack.Params() {
		if !p.Value.AllFinite() {
			t.Fatal("non-finite weights after batch-size-1 training")
		}
	}
}

func TestFitSingleClassLabels(t *testing.T) {
	// Degenerate supervision must not crash or produce NaN.
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(NewSequential(NewDense(rng, 2, 3)), NewSoftmaxCrossEntropy(), NewRMSprop(0.01))
	x := tensor.RandNormal(rng, 0, 1, 8, 2)
	y := make([]int, 8) // all class 0
	net.Fit(x, y, FitConfig{Epochs: 80, BatchSize: 4})
	pred := net.PredictClasses(x, 4)
	for _, p := range pred {
		if p != 0 {
			t.Fatalf("single-class training should predict that class, got %d", p)
		}
	}
}

func TestFitRank3WithShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stack := NewSequential(NewGRU(rng, 3, 4, false), NewDense(rng, 4, 2))
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), NewAdam(0.01))
	x := tensor.RandNormal(rng, 0, 1, 12, 2, 3) // (batch, T=2, C=3)
	y := make([]int, 12)
	for i := range y {
		y[i] = i % 2
	}
	stats := net.Fit(x, y, FitConfig{Epochs: 3, BatchSize: 5, Shuffle: true, RNG: rng})
	if len(stats) != 3 {
		t.Fatalf("ran %d epochs, want 3", len(stats))
	}
}

func TestLossRejectsBadLabels(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	logits := tensor.New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	loss.Forward(logits, []int{0, 7})
}

func TestLossRejectsMismatchedBatch(t *testing.T) {
	loss := NewSoftmaxCrossEntropy()
	logits := tensor.New(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("label-count mismatch did not panic")
		}
	}()
	loss.Forward(logits, []int{0})
}

func TestBackwardBeforeForwardGRUPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gru := NewGRU(rng, 2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("GRU.Backward without Forward did not panic")
		}
	}()
	gru.Backward(tensor.New(1, 2))
}

func TestTrainingRecoversFromLargeGradients(t *testing.T) {
	// Inject an extreme input scale; gradient clipping must keep the
	// network finite and trainable.
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewSequential(
		NewDense(rng, 2, 8), NewReLU(), NewDense(rng, 8, 2),
	), NewSoftmaxCrossEntropy(), func() Optimizer {
		o := NewRMSprop(0.01)
		o.MaxNorm = 1
		return o
	}())
	x := tensor.RandNormal(rng, 0, 1e6, 16, 2) // absurd scale
	y := make([]int, 16)
	for i := range y {
		y[i] = i % 2
	}
	for i := 0; i < 10; i++ {
		net.TrainBatch(x, y)
	}
	for _, p := range net.Stack.Params() {
		if !p.Value.AllFinite() {
			t.Fatal("weights exploded despite gradient clipping")
		}
	}
}

func TestPredictClassesChunking(t *testing.T) {
	// Chunked prediction must equal single-shot prediction.
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(NewSequential(NewDense(rng, 4, 3)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	x := tensor.RandNormal(rng, 0, 1, 23, 4) // deliberately not a multiple
	whole := net.PredictClasses(x, 0)
	chunked := net.PredictClasses(x, 7)
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("chunked prediction differs at row %d", i)
		}
	}
}

func TestEvalLossBatchedWeighting(t *testing.T) {
	// Batched eval must equal whole-set eval (weighted by batch size).
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(NewSequential(NewDense(rng, 3, 2)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	x := tensor.RandNormal(rng, 0, 1, 17, 3)
	y := make([]int, 17)
	for i := range y {
		y[i] = i % 2
	}
	whole := net.EvalLoss(x, y)
	batched := net.evalLossBatched(x, y, 5)
	if diff := whole - batched; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("batched eval loss %v != whole %v", batched, whole)
	}
}
