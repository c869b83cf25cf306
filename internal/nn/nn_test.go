package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDenseKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(rng, 2, 2)
	l.w.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	l.b.Value.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := l.Forward(x, false)
	// [1 1] @ [[1 2][3 4]] + [10 20] = [14 26]
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("Dense forward = %v, want [14 26]", out.Data())
	}
}

func TestDensePanicsOnWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(rng, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Dense with wrong input width did not panic")
		}
	}()
	l.Forward(tensor.New(1, 4), false)
}

func TestReLUForward(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0, 2}, 1, 3)
	out := NewReLU().Forward(x, false)
	if out.At(0, 0) != 0 || out.At(0, 1) != 0 || out.At(0, 2) != 2 {
		t.Fatalf("ReLU = %v", out.Data())
	}
}

func TestHardSigmoidValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-3, 0}, {-2.5, 0}, {0, 0.5}, {1, 0.7}, {2.5, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := hardSigmoid(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hardSigmoid(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	out := tensor.RandNormal(rng, 0, 10, 6, 9)
	for r := 0; r < 6; r++ {
		softmaxRow(out.Row(r))
		s := 0.0
		for c := 0; c < 9; c++ {
			v := out.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax output %v outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("softmax row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	out := tensor.FromSlice([]float64{1000, 1001, 999}, 1, 3)
	softmaxRow(out.Row(0))
	if !out.AllFinite() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestConv1DSamePreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewConv1D(rng, 4, 6, 5, PaddingSame)
	out := l.Forward(tensor.RandNormal(rng, 0, 1, 2, 9, 4), false)
	if !shapeEq(out, 2, 9, 6) {
		t.Fatalf("same-conv output shape %v, want [2 9 6]", out.Shape())
	}
}

func TestConv1DValidShrinksLength(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewConv1D(rng, 4, 6, 5, PaddingValid)
	out := l.Forward(tensor.RandNormal(rng, 0, 1, 2, 9, 4), false)
	if !shapeEq(out, 2, 5, 6) {
		t.Fatalf("valid-conv output shape %v, want [2 5 6]", out.Shape())
	}
}

func TestConv1DKnownValues(t *testing.T) {
	// Single channel, kernel [1, 2, 3] ("same", left pad 1), input [1, 2, 3].
	rng := rand.New(rand.NewSource(5))
	l := NewConv1D(rng, 1, 1, 3, PaddingSame)
	l.w.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3}, 3, 1, 1))
	l.b.Value.Zero()
	x := tensor.FromSlice([]float64{1, 2, 3}, 1, 3, 1)
	out := l.Forward(x, false)
	// out[t] = Σ_k w[k]·x[t+k−1]:
	// t0: w1·x0 + w2·x1 = 2·1+3·2 = 8
	// t1: w0·x0 + w1·x1 + w2·x2 = 1+4+9 = 14
	// t2: w0·x1 + w1·x2 = 2+6 = 8
	want := []float64{8, 14, 8}
	for i, w := range want {
		if math.Abs(out.Data()[i]-w) > 1e-12 {
			t.Fatalf("conv known values = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPool1DKnownValues(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 5, 3, 2, 9, 0}, 1, 6, 1)
	out := NewMaxPool1D(2).Forward(x, false)
	want := []float64{5, 3, 9}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("maxpool = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPool1DPoolLargerThanSeq(t *testing.T) {
	x := tensor.FromSlice([]float64{3, 7}, 1, 1, 2)
	out := NewMaxPool1D(4).Forward(x, false)
	if !shapeEq(out, 1, 1, 2) {
		t.Fatalf("pool>T output shape %v, want [1 1 2]", out.Shape())
	}
	if out.At(0, 0, 0) != 3 || out.At(0, 0, 1) != 7 {
		t.Fatalf("pool>T should be identity for T=1: %v", out.Data())
	}
}

func TestGlobalAvgPoolKnownValues(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 1, 3, 2)
	out := NewGlobalAvgPool1D().Forward(x, false)
	if out.At(0, 0) != 3 || out.At(0, 1) != 4 {
		t.Fatalf("GAP = %v, want [3 4]", out.Data())
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewBatchNorm(3)
	x := tensor.RandNormal(rng, 5, 3, 200, 3)
	out := l.Forward(x, true)
	// With default gamma=1, beta=0 the output per channel should be ~N(0,1).
	for c := 0; c < 3; c++ {
		mean, sq := 0.0, 0.0
		for r := 0; r < 200; r++ {
			v := out.At(r, c)
			mean += v
			sq += v * v
		}
		mean /= 200
		std := math.Sqrt(sq/200 - mean*mean)
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("BN channel %d mean %v, want 0", c, mean)
		}
		if math.Abs(std-1) > 0.01 {
			t.Fatalf("BN channel %d std %v, want ~1", c, std)
		}
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewBatchNorm(2)
	l.Momentum = 0.5 // converge fast for the test
	for i := 0; i < 60; i++ {
		l.Forward(tensor.RandNormal(rng, 4, 2, 512, 2), true)
	}
	mean, variance := l.RunningStats()
	for c := 0; c < 2; c++ {
		if math.Abs(mean.At(c)-4) > 0.3 {
			t.Fatalf("running mean[%d] = %v, want ≈4", c, mean.At(c))
		}
		if math.Abs(variance.At(c)-4) > 0.6 {
			t.Fatalf("running var[%d] = %v, want ≈4", c, variance.At(c))
		}
	}
	// Inference must use running stats: a batch at the same distribution
	// should come out roughly standardized.
	out := l.Forward(tensor.RandNormal(rng, 4, 2, 256, 2), false)
	if math.Abs(out.Mean()) > 0.2 {
		t.Fatalf("inference BN output mean %v, want ≈0", out.Mean())
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewDropout(rand.New(rand.NewSource(9)), 0.7)
	x := tensor.RandNormal(rng, 0, 1, 4, 5)
	out := l.Forward(x, false)
	if !tensor.ApproxEqual(out, x, 0) {
		t.Fatal("eval-mode dropout is not identity")
	}
}

func TestDropoutTrainDropsAndRescales(t *testing.T) {
	l := NewDropout(rand.New(rand.NewSource(10)), 0.5)
	x := tensor.Ones(1, 10000)
	out := l.Forward(x, true)
	zeros, scaled := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / 10000
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("dropped fraction %v, want ≈0.5", frac)
	}
	// Expectation preserved.
	if m := out.Mean(); math.Abs(m-1) > 0.05 {
		t.Fatalf("dropout mean %v, want ≈1 (inverted dropout)", m)
	}
}

func TestDropoutZeroRateIsIdentityInTrain(t *testing.T) {
	l := NewDropout(rand.New(rand.NewSource(11)), 0)
	x := tensor.Ones(2, 3)
	out := l.Forward(x, true)
	if !tensor.ApproxEqual(out, x, 0) {
		t.Fatal("rate-0 dropout altered input")
	}
}

func TestGRUOutputShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seq := NewGRU(rng, 4, 7, true)
	out := seq.Forward(tensor.RandNormal(rng, 0, 1, 3, 5, 4), false)
	if !shapeEq(out, 3, 5, 7) {
		t.Fatalf("GRU seq output %v, want [3 5 7]", out.Shape())
	}
	last := NewGRU(rng, 4, 7, false)
	out2 := last.Forward(tensor.RandNormal(rng, 0, 1, 3, 5, 4), false)
	if !shapeEq(out2, 3, 7) {
		t.Fatalf("GRU last output %v, want [3 7]", out2.Shape())
	}
}

func TestGRUSeqLastStepMatchesNonSeq(t *testing.T) {
	// With identical weights, the last frame of a return-sequences GRU must
	// equal the non-sequence output.
	rngA := rand.New(rand.NewSource(13))
	a := NewGRU(rngA, 3, 4, true)
	rngB := rand.New(rand.NewSource(13))
	b := NewGRU(rngB, 3, 4, false)
	x := tensor.RandNormal(rand.New(rand.NewSource(14)), 0, 1, 2, 6, 3)
	outA := a.Forward(x, false)
	outB := b.Forward(x, false)
	for bi := 0; bi < 2; bi++ {
		for h := 0; h < 4; h++ {
			if math.Abs(outA.At(bi, 5, h)-outB.At(bi, h)) > 1e-12 {
				t.Fatalf("seq last step %v != non-seq %v", outA.At(bi, 5, h), outB.At(bi, h))
			}
		}
	}
}

func TestLSTMOutputShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	seq := NewLSTM(rng, 4, 6, true)
	out := seq.Forward(tensor.RandNormal(rng, 0, 1, 2, 5, 4), false)
	if !shapeEq(out, 2, 5, 6) {
		t.Fatalf("LSTM seq output %v, want [2 5 6]", out.Shape())
	}
	last := NewLSTM(rng, 4, 6, false)
	out2 := last.Forward(tensor.RandNormal(rng, 0, 1, 2, 5, 4), false)
	if !shapeEq(out2, 2, 6) {
		t.Fatalf("LSTM last output %v, want [2 6]", out2.Shape())
	}
}

func TestOrthogonalSquareIsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	q := orthogonalSquare(rng, 8, 1)
	qt := q.Transpose2D()
	prod := tensor.MatMul(q, qt)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Fatalf("QQᵀ[%d][%d] = %v, want %v", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestResidualPanicsOnShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	res := NewResidual(NewDense(rng, 4, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("shape-changing Residual body did not panic")
		}
	}()
	res.Forward(tensor.New(2, 4), false)
}

func TestSequentialSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s := NewSequential(NewDense(rng, 3, 4), NewReLU(), NewDense(rng, 4, 2))
	sum := s.Summary()
	if sum == "" {
		t.Fatal("empty summary")
	}
	// 3*4+4 + 4*2+2 = 26 total params.
	if got := ParamCount(s.Params()); got != 26 {
		t.Fatalf("ParamCount = %d, want 26", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(4))
	p.Grad.CopyFrom(tensor.FromSlice([]float64{3, 4, 0, 0}, 4))
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	if post := GlobalGradNorm([]*Param{p}); math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", post)
	}
	// maxNorm <= 0 disables clipping.
	p.Grad.CopyFrom(tensor.FromSlice([]float64{3, 4, 0, 0}, 4))
	ClipGradNorm([]*Param{p}, 0)
	if n := GlobalGradNorm([]*Param{p}); math.Abs(n-5) > 1e-12 {
		t.Fatalf("clip with maxNorm=0 altered grads: %v", n)
	}
}

func TestSGDStepAndZeroGrad(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float64{1, 1}, 2))
	p.Grad.CopyFrom(tensor.FromSlice([]float64{1, -1}, 2))
	opt := NewSGD(0.1, 0)
	opt.Step([]*Param{p})
	if p.Value.At(0) != 0.9 || p.Value.At(1) != 1.1 {
		t.Fatalf("SGD step wrong: %v", p.Value.Data())
	}
	if p.Grad.MaxAbs() != 0 {
		t.Fatal("optimizer did not zero gradients")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", tensor.New(1))
	opt := NewSGD(1, 0.9)
	for i := 0; i < 3; i++ {
		p.Grad.Fill(1)
		opt.Step([]*Param{p})
	}
	// v1=-1, v2=-1.9, v3=-2.71 → w = -(1+1.9+2.71) = -5.61
	if math.Abs(p.Value.At(0)+5.61) > 1e-9 {
		t.Fatalf("momentum value %v, want -5.61", p.Value.At(0))
	}
}

func TestRMSpropNormalizesScale(t *testing.T) {
	// Two parameters with gradients of very different magnitude should
	// receive nearly equal first-step updates (scale invariance).
	p1 := NewParam("a", tensor.New(1))
	p2 := NewParam("b", tensor.New(1))
	p1.Grad.Fill(100)
	p2.Grad.Fill(0.01)
	opt := NewRMSprop(0.01)
	opt.Step([]*Param{p1, p2})
	d1 := math.Abs(p1.Value.At(0))
	d2 := math.Abs(p2.Value.At(0))
	if math.Abs(d1-d2)/d1 > 1e-3 {
		t.Fatalf("RMSprop updates not scale-normalized: %v vs %v", d1, d2)
	}
}

// optimizers must reduce a simple convex quadratic.
func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	opts := map[string]Optimizer{
		"sgd":     NewSGD(0.1, 0),
		"sgd-mom": NewSGD(0.05, 0.9),
		"rmsprop": NewRMSprop(0.05),
		"adam":    NewAdam(0.1),
	}
	for name, opt := range opts {
		p := NewParam("w", tensor.FromSlice([]float64{5, -3}, 2))
		for i := 0; i < 500; i++ {
			// L = ||w||²/2, dL/dw = w
			p.Grad.CopyFrom(p.Value)
			opt.Step([]*Param{p})
		}
		if got := p.Value.Norm2(); got > 0.1 {
			t.Errorf("%s failed to converge: ||w|| = %v", name, got)
		}
	}
}

func TestNetworkLearnsXOR(t *testing.T) {
	// End-to-end sanity: a 2-layer MLP must learn XOR.
	rng := rand.New(rand.NewSource(19))
	stack := NewSequential(
		NewDense(rng, 2, 16),
		NewTanh(),
		NewDense(rng, 16, 2),
	)
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), NewAdam(0.05))
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	y := []int{0, 1, 1, 0}
	var last float64
	for i := 0; i < 400; i++ {
		last = net.TrainBatch(x, y)
	}
	if last > 0.05 {
		t.Fatalf("XOR loss %v after training, want < 0.05", last)
	}
	pred := net.PredictClasses(x, 0)
	for i, p := range pred {
		if p != y[i] {
			t.Fatalf("XOR misclassified input %d: got %d want %d", i, p, y[i])
		}
	}
}

func TestNetworkFitReportsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	stack := NewSequential(NewDense(rng, 3, 8), NewReLU(), NewDense(rng, 8, 2))
	net := NewNetwork(stack, NewSoftmaxCrossEntropy(), NewSGD(0.1, 0.9))
	x := tensor.RandNormal(rng, 0, 1, 64, 3)
	y := make([]int, 64)
	for i := 0; i < 64; i++ {
		if x.At(i, 0)+x.At(i, 1) > 0 {
			y[i] = 1
		}
	}
	stats := net.Fit(x, y, FitConfig{
		Epochs: 30, BatchSize: 16, Shuffle: true, RNG: rng,
		TestX: x, TestLabels: y,
	})
	if len(stats) != 30 {
		t.Fatalf("got %d epoch stats, want 30", len(stats))
	}
	first, last := stats[0], stats[len(stats)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Fatalf("training loss did not decrease: %v → %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAcc < 0.85 {
		t.Fatalf("linearly-separable accuracy %v, want > 0.85", last.TestAcc)
	}
}

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	build := func(seed int64) *Network {
		r := rand.New(rand.NewSource(seed))
		return NewNetwork(NewSequential(
			NewDense(r, 4, 6),
			NewBatchNorm(6),
			NewTanh(),
			NewDense(r, 6, 3),
		), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	}
	src := build(1)
	// Train briefly so weights and BN running stats are non-trivial.
	x := tensor.RandNormal(rng, 0, 1, 32, 4)
	y := make([]int, 32)
	for i := range y {
		y[i] = i % 3
	}
	for i := 0; i < 5; i++ {
		src.TrainBatch(x, y)
	}
	st := src.State()
	dst := build(2) // different init
	if err := dst.SetState(st); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	want := src.Predict(x)
	got := dst.Predict(x)
	if !tensor.ApproxEqual(want, got, 1e-12) {
		t.Fatal("restored network predictions differ from source")
	}
	// State is a copy: training the source on must not move the snapshot.
	before := append([]float64(nil), st[0].Data...)
	src.TrainBatch(x, y)
	if !slices.Equal(st[0].Data, before) {
		t.Fatal("State aliases the live parameters")
	}
}

func TestNetworkLoadRejectsMismatchedArch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := NewNetwork(NewSequential(NewDense(rng, 4, 6)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0))
	cases := map[string]*Network{
		"wider dense":     NewNetwork(NewSequential(NewDense(rng, 4, 7)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0)),
		"transposed":      NewNetwork(NewSequential(NewDense(rng, 6, 4)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0)),
		"extra BatchNorm": NewNetwork(NewSequential(NewDense(rng, 4, 6), NewBatchNorm(6)), NewSoftmaxCrossEntropy(), NewSGD(0.1, 0)),
	}
	for name, dst := range cases {
		if err := dst.SetState(src.State()); err == nil {
			t.Fatalf("%s: SetState accepted a mismatched architecture", name)
		}
	}
}

func TestAccuracyHelper(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 2, 1,
		1, 0, 2,
		2, 1, 0,
	}, 4, 3)
	labels := []int{0, 1, 2, 1}
	if got := Accuracy(logits, labels); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
}

// --- property-based tests -------------------------------------------------

// TestPropResidualForwardIsBodyPlusInput holds for any input.
func TestPropResidualForwardIsBodyPlusInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		body := NewDense(rng, n, n)
		res := NewResidual(body)
		x := tensor.RandNormal(rng, 0, 1, 3, n)
		got := res.Forward(x, false)
		want := tensor.Add(body.Forward(x, false), x)
		return tensor.ApproxEqual(got, want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropSoftmaxCEPositive: cross-entropy loss is always positive.
func TestPropSoftmaxCEPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, c := 1+rng.Intn(8), 2+rng.Intn(6)
		logits := tensor.RandNormal(rng, 0, 3, b, c)
		labels := make([]int, b)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		loss := NewSoftmaxCrossEntropy()
		return loss.Forward(logits, labels) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropCEGradientRowsSumToZero: each row of d(CE)/d(logits) sums to 0
// (softmax minus one-hot).
func TestPropCEGradientRowsSumToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, c := 1+rng.Intn(8), 2+rng.Intn(6)
		logits := tensor.RandNormal(rng, 0, 3, b, c)
		labels := make([]int, b)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		loss := NewSoftmaxCrossEntropy()
		loss.Forward(logits, labels)
		grad := loss.Backward()
		for r := 0; r < b; r++ {
			s := 0.0
			for cc := 0; cc < c; cc++ {
				s += grad.At(r, cc)
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropBatchNormOutputMoments: training-mode BN always standardizes.
func TestPropBatchNormOutputMoments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(5)
		n := 16 + rng.Intn(64)
		bn := NewBatchNorm(c)
		mean := rng.NormFloat64() * 10
		std := 0.5 + rng.Float64()*5
		out := bn.Forward(tensor.RandNormal(rng, mean, std, n, c), true)
		for ci := 0; ci < c; ci++ {
			m, sq := 0.0, 0.0
			for r := 0; r < n; r++ {
				v := out.At(r, ci)
				m += v
				sq += v * v
			}
			m /= float64(n)
			if math.Abs(m) > 1e-7 {
				return false
			}
			variance := sq/float64(n) - m*m
			// Allow the eps slack: var = σ²/(σ²+eps) ≤ 1.
			if variance > 1.0001 || variance < 0.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// shapeEq reports whether the tensor's shape equals want.
func shapeEq(t *tensor.Tensor, want ...int) bool {
	if t.Rank() != len(want) {
		return false
	}
	for i, d := range want {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
