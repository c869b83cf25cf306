package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// gradTol is the acceptable relative error between analytic and numeric
// gradients for smooth layers.
const gradTol = 1e-5

// checkLayer runs CheckGradients and fails the test when the analytic
// gradients disagree with finite differences.
func checkLayer(t *testing.T, name string, layer Layer, x *tensor.Tensor, trainMode bool, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := layer.Forward(x, trainMode)
	r := tensor.RandNormal(rng, 0, 1, out.Shape()...)
	res := CheckGradients(layer, x, r, trainMode, 1e-5, 1)
	if res.MaxInputErr > tol {
		t.Errorf("%s: input gradient relative error %.3g > %.3g", name, res.MaxInputErr, tol)
	}
	if res.MaxParamErr > tol {
		t.Errorf("%s: param gradient relative error %.3g > %.3g (param %s)", name, res.MaxParamErr, tol, res.WorstParam)
	}
}

func TestGradDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(rng, 7, 5)
	x := tensor.RandNormal(rng, 0, 1, 4, 7)
	checkLayer(t, "Dense", l, x, false, gradTol)
}

func TestGradDenseNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDenseNoBias(rng, 3, 6)
	x := tensor.RandNormal(rng, 0, 1, 5, 3)
	checkLayer(t, "DenseNoBias", l, x, false, gradTol)
}

func TestGradReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Keep inputs away from the kink at 0.
	x := tensor.RandNormal(rng, 0, 1, 4, 9).Apply(func(v float64) float64 {
		if v > -0.01 && v < 0.01 {
			return v + 0.5
		}
		return v
	})
	checkLayer(t, "ReLU", NewReLU(), x, false, gradTol)
}

func TestGradTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 0, 1, 3, 8)
	checkLayer(t, "Tanh", NewTanh(), x, false, gradTol)
}

// scalarSlope is the central-difference derivative of f at v.
func scalarSlope(f func(float64) float64, v float64) float64 {
	const h = 1e-6
	return (f(v+h) - f(v-h)) / (2 * h)
}

// TestGradSigmoid pins the identity the LSTM's backward pass differentiates
// its gates with: sigmoid'(v) = s(1-s).
func TestGradSigmoid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 24; i++ {
		v := rng.NormFloat64()
		s := sigmoid(v)
		if got, want := s*(1-s), scalarSlope(sigmoid, v); math.Abs(got-want) > gradTol {
			t.Fatalf("sigmoid'(%v): s(1-s) = %.8g, numeric %.8g", v, got, want)
		}
	}
}

// TestGradHardSigmoid checks hardSigmoidGrad — what the GRU's backward pass
// multiplies its gate gradients by — against the slope of hardSigmoid.
func TestGradHardSigmoid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 24; i++ {
		// The linear region and both saturated tails, away from the kinks
		// at ±2.5.
		v := -2.0 + 4.0*rng.Float64()
		if i%3 == 1 {
			v = 3 + rng.Float64()
		} else if i%3 == 2 {
			v = -3 - rng.Float64()
		}
		if got, want := hardSigmoidGrad(v), scalarSlope(hardSigmoid, v); math.Abs(got-want) > gradTol {
			t.Fatalf("hardSigmoidGrad(%v) = %.8g, numeric %.8g", v, got, want)
		}
	}
}

func TestGradConv1DSame(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewConv1D(rng, 3, 4, 3, PaddingSame)
	x := tensor.RandNormal(rng, 0, 1, 2, 7, 3)
	checkLayer(t, "Conv1D-same", l, x, false, gradTol)
}

func TestGradConv1DValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewConv1D(rng, 2, 5, 4, PaddingValid)
	x := tensor.RandNormal(rng, 0, 1, 3, 9, 2)
	checkLayer(t, "Conv1D-valid", l, x, false, gradTol)
}

func TestGradConv1DKernelLargerThanSeq(t *testing.T) {
	// The paper's degenerate case: kernel 10 over a length-1 sequence with
	// "same" padding.
	rng := rand.New(rand.NewSource(10))
	l := NewConv1D(rng, 5, 5, 10, PaddingSame)
	x := tensor.RandNormal(rng, 0, 1, 3, 1, 5)
	checkLayer(t, "Conv1D-k>T", l, x, false, gradTol)
}

func TestGradMaxPool1D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewMaxPool1D(2)
	// Spread values so ties/kinks are unlikely under the 1e-5 perturbation.
	x := tensor.RandNormal(rng, 0, 5, 2, 8, 3)
	checkLayer(t, "MaxPool1D", l, x, false, gradTol)
}

func TestGradMaxPool1DOddLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewMaxPool1D(3)
	x := tensor.RandNormal(rng, 0, 5, 2, 7, 2)
	checkLayer(t, "MaxPool1D-odd", l, x, false, gradTol)
}

func TestGradGlobalAvgPool1D(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := tensor.RandNormal(rng, 0, 1, 3, 5, 4)
	checkLayer(t, "GlobalAvgPool1D", NewGlobalAvgPool1D(), x, false, gradTol)
}

func TestGradBatchNormTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewBatchNorm(5)
	// Nudge gamma/beta off their init so the test isn't trivially passing.
	l.gamma.Value.Apply(func(float64) float64 { return 1.3 })
	l.beta.Value.Apply(func(float64) float64 { return -0.2 })
	x := tensor.RandNormal(rng, 1, 2, 6, 5)
	checkLayer(t, "BatchNorm-train", l, x, true, 1e-4)
}

func TestGradBatchNormTrainRank3(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewBatchNorm(3)
	x := tensor.RandNormal(rng, -1, 1.5, 2, 4, 3)
	checkLayer(t, "BatchNorm-train-NTC", l, x, true, 1e-4)
}

func TestGradBatchNormEval(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l := NewBatchNorm(4)
	// Populate running stats with one training pass first.
	warm := tensor.RandNormal(rng, 0, 1, 8, 4)
	l.Forward(warm, true)
	x := tensor.RandNormal(rng, 0, 1, 5, 4)
	checkLayer(t, "BatchNorm-eval", l, x, false, gradTol)
}

func TestGradDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := tensor.RandNormal(rng, 0, 1, 4, 6)
	checkLayer(t, "Dropout-eval", l, x, false, gradTol)
}

func TestGradDropoutTrainPinnedMask(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := NewDropout(rand.New(rand.NewSource(2)), 0.4)
	l.PinMask = true
	x := tensor.RandNormal(rng, 0, 1, 4, 6)
	l.Forward(x, true) // generate and pin the mask
	checkLayer(t, "Dropout-train-pinned", l, x, true, gradTol)
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	l := NewReshape(2, 6)
	x := tensor.RandNormal(rng, 0, 1, 3, 12)
	checkLayer(t, "Reshape", l, x, false, gradTol)
}

func TestGradFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.RandNormal(rng, 0, 1, 3, 2, 5)
	checkLayer(t, "Flatten", NewFlatten(), x, false, gradTol)
}

func TestGradGRUSeqFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewGRU(rng, 4, 3, false)
	// Small activations keep hard-sigmoid inputs inside the linear region.
	x := tensor.RandNormal(rng, 0, 0.5, 2, 5, 4)
	checkLayer(t, "GRU-last", l, x, false, 1e-4)
}

func TestGradGRUSeqTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	l := NewGRU(rng, 3, 3, true)
	x := tensor.RandNormal(rng, 0, 0.5, 2, 4, 3)
	checkLayer(t, "GRU-seq", l, x, false, 1e-4)
}

func TestGradGRUSingleStep(t *testing.T) {
	// The paper's configuration: T = 1.
	rng := rand.New(rand.NewSource(23))
	l := NewGRU(rng, 6, 6, true)
	x := tensor.RandNormal(rng, 0, 0.5, 3, 1, 6)
	checkLayer(t, "GRU-T1", l, x, false, 1e-4)
}

func TestGradLSTMSeqFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewLSTM(rng, 4, 3, false)
	x := tensor.RandNormal(rng, 0, 0.5, 2, 5, 4)
	checkLayer(t, "LSTM-last", l, x, false, 1e-4)
}

func TestGradLSTMSeqTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := NewLSTM(rng, 3, 4, true)
	x := tensor.RandNormal(rng, 0, 0.5, 2, 4, 3)
	checkLayer(t, "LSTM-seq", l, x, false, 1e-4)
}

func TestGradSequentialStack(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	stack := NewSequential(
		NewDense(rng, 6, 8),
		NewTanh(),
		NewDense(rng, 8, 4),
	)
	x := tensor.RandNormal(rng, 0, 1, 3, 6)
	checkLayer(t, "Sequential", stack, x, false, gradTol)
}

func TestGradResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	res := NewResidual(NewSequential(
		NewDense(rng, 5, 5),
		NewTanh(),
	))
	x := tensor.RandNormal(rng, 0, 1, 4, 5)
	checkLayer(t, "Residual", res, x, false, gradTol)
}

func TestGradPreShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ps := NewPreShortcut(
		NewDense(rng, 4, 4),
		NewSequential(NewDense(rng, 4, 4), NewTanh()),
	)
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	checkLayer(t, "PreShortcut", ps, x, false, gradTol)
}

func TestGradResidualBlockShape(t *testing.T) {
	// A miniature of the paper's ResBlk: BN head, conv+GRU body, shortcut
	// from the BN output (Fig. 4b). F = 6, T = 1, kernel 3.
	rng := rand.New(rand.NewSource(29))
	f := 6
	body := NewSequential(
		NewConv1D(rng, f, f, 3, PaddingSame),
		NewReLU(),
		NewMaxPool1D(2),
		NewBatchNorm(f),
		NewGRU(rng, f, f, true),
		NewDropout(rand.New(rand.NewSource(3)), 0),
	)
	blk := NewPreShortcut(NewBatchNorm(f), body)
	x := tensor.RandNormal(rng, 0, 0.5, 4, 1, f)
	checkLayer(t, "ResBlk-mini", blk, x, true, 2e-4)
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	// Check dLoss/dLogits against finite differences of the loss itself.
	rng := rand.New(rand.NewSource(30))
	logits := tensor.RandNormal(rng, 0, 1, 5, 4)
	labels := []int{0, 3, 2, 1, 3}
	loss := NewSoftmaxCrossEntropy()
	loss.Forward(logits, labels)
	grad := loss.Backward()
	eps := 1e-6
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + eps
		lp := loss.Forward(logits, labels)
		ld[i] = orig - eps
		lm := loss.Forward(logits, labels)
		ld[i] = orig
		num := (lp - lm) / (2 * eps)
		if e := relErr(num, grad.Data()[i]); e > 1e-4 {
			t.Fatalf("CE grad at %d: numeric %.8g analytic %.8g (err %.3g)", i, num, grad.Data()[i], e)
		}
	}
}

// NewDenseNoBias constructs a Dense layer without a bias term: no model
// builds one, so the useBias=false branches are reachable from here only.
func NewDenseNoBias(rng *rand.Rand, in, out int) *Dense {
	d := NewDense(rng, in, out)
	d.useBias = false
	return d
}
