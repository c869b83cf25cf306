package infer

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// randomizeBN gives a BatchNorm non-trivial gamma/beta and running moments
// so folding tests exercise real affine constants, not the 1/0 defaults.
func randomizeBN(rng *rand.Rand, bn *nn.BatchNorm) {
	params := bn.Params() // [gamma, beta]
	g, b := params[0].Value.Data(), params[1].Value.Data()
	mean := make([]float64, bn.C)
	variance := make([]float64, bn.C)
	for i := 0; i < bn.C; i++ {
		g[i] = 0.5 + rng.Float64()
		b[i] = rng.NormFloat64()
		mean[i] = rng.NormFloat64()
		variance[i] = 0.1 + rng.Float64()
	}
	bn.SetRunningStats(tensor.FromSlice(mean, bn.C), tensor.FromSlice(variance, bn.C))
}

// TestFoldBNIntoDenseProperty: for random shapes, the float64 fold of a
// BatchNorm into a following Dense must match the unfolded BN→Dense
// evaluation to 1e-6.
func TestFoldBNIntoDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		batch := 1 + rng.Intn(9)
		in := 1 + rng.Intn(40)
		out := 1 + rng.Intn(40)
		bn := nn.NewBatchNorm(in)
		randomizeBN(rng, bn)
		dense := nn.NewDense(rng, in, out)
		x := tensor.RandNormal(rng, 0, 1, batch, in)

		ref := dense.Forward(bn.Forward(x, false), false).Clone()

		scale, shift := bnAffine(bn)
		params := dense.Params()
		w := cloneData(params[0].Value)
		bias := foldAffineIntoGEMM(scale, shift, w, cloneData(params[1].Value), in, out)
		for r := 0; r < batch; r++ {
			for j := 0; j < out; j++ {
				s := bias[j]
				for i := 0; i < in; i++ {
					s += x.At(r, i) * w[i*out+j]
				}
				if d := math.Abs(s - ref.At(r, j)); d > 1e-6 {
					t.Fatalf("trial %d (B=%d %d→%d): [%d,%d] folded %v vs unfolded %v (delta %g)",
						trial, batch, in, out, r, j, s, ref.At(r, j), d)
				}
			}
		}
	}
}

// TestFoldBNIntoConvProperty: the float64 fold of a BatchNorm into a
// following Conv1D must match unfolded evaluation to 1e-6 across random
// channel counts and kernel sizes — the T=1 full-coverage case, where
// exactly one tap contributes.
func TestFoldBNIntoConvProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		batch := 1 + rng.Intn(9)
		in := 1 + rng.Intn(30)
		out := 1 + rng.Intn(30)
		k := 1 + rng.Intn(12)
		bn := nn.NewBatchNorm(in)
		randomizeBN(rng, bn)
		conv := nn.NewConv1D(rng, in, out, k, nn.PaddingSame)
		x := tensor.RandNormal(rng, 0, 1, batch, 1, in)

		ref := conv.Forward(bn.Forward(x, false), false).Clone()

		tap, err := convTapT1(conv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		scale, shift := bnAffine(bn)
		wd := conv.Params()[0].Value.Data()
		sz := in * out
		w := make([]float64, sz)
		copy(w, wd[tap*sz:(tap+1)*sz])
		bias := foldAffineIntoGEMM(scale, shift, w, cloneData(conv.Params()[1].Value), in, out)
		for r := 0; r < batch; r++ {
			for j := 0; j < out; j++ {
				s := bias[j]
				for i := 0; i < in; i++ {
					s += x.At(r, 0, i) * w[i*out+j]
				}
				if d := math.Abs(s - ref.At(r, 0, j)); d > 1e-6 {
					t.Fatalf("trial %d (B=%d %d→%d K=%d): [%d,%d] folded %v vs unfolded %v (delta %g)",
						trial, batch, in, out, k, r, j, s, ref.At(r, 0, j), d)
				}
			}
		}
	}
}

// TestCompileRejectsUnsupported pins the error paths: valid-padding conv
// with K>1 has no output at T=1.
func TestCompileRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stack := nn.NewSequential(nn.NewConv1D(rng, 8, 8, 3, nn.PaddingValid))
	if _, err := CompileStack(stack); err == nil {
		t.Fatal("valid-padding K=3 conv compiled; want error")
	}
}

// TestStandaloneReluLowering covers the opRelu path: a ReLU that cannot
// fuse into a GEMM epilogue (here it follows a shortcut-free BatchNorm
// affine) must still match the float64 stack.
func TestStandaloneReluLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const features, batch = 12, 7
	bn := nn.NewBatchNorm(features)
	randomizeBN(rng, bn)
	stack := nn.NewSequential(bn, nn.NewReLU(), nn.NewGRU(rng, features, features, true))
	plan, err := CompileStack(stack)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(rng, 0, 1, batch, 1, features)
	want := stack.Forward(x, false)
	eng := plan.NewEngine()
	in := eng.In(batch)
	for i, v := range x.Data() {
		in[i] = float32(v)
	}
	got := eng.Run(batch)
	if d := maxAbsDelta(want.Data(), got); d > 1e-5 {
		t.Fatalf("standalone ReLU path: max |delta| = %g", d)
	}
}

// maxAbsDelta returns max_i |a[i] − float64(b[i])|.
func maxAbsDelta(a []float64, b []float32) float64 {
	m := 0.0
	for i, v := range a {
		if d := math.Abs(v - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// TestEngineMatchesNetworkAllRegistryModels compiles every registry model
// (random weights, jiggled BN statistics) and checks the float32 engine
// against the float64 Predict on random input.
func TestEngineMatchesNetworkAllRegistryModels(t *testing.T) {
	const features, classes, batch = 24, 5, 13
	cfg := models.BlockConfig{Features: features, Kernel: 5, Pool: 2, Dropout: 0.4}
	for _, name := range models.Names() {
		spec, err := models.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		stack := spec.Build(rng, rand.New(rand.NewSource(11)), cfg, features, classes)
		net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0.01, 0))
		// Two training-mode passes move the BatchNorm running moments off
		// their 0/1 defaults so folding is exercised for real.
		warm := tensor.RandNormal(rng, 0, 1, batch, 1, features)
		stack.Forward(warm, true)
		stack.Forward(warm, true)

		plan, err := Compile(net)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if plan.Features() != features || plan.Classes() != classes {
			t.Fatalf("%s: plan shape %d→%d, want %d→%d", name, plan.Features(), plan.Classes(), features, classes)
		}

		x := tensor.RandNormal(rng, 0, 1, batch, 1, features)
		want := net.Predict(x)
		eng := plan.NewEngine()
		in := eng.In(batch)
		for i, v := range x.Data() {
			in[i] = float32(v)
		}
		got := eng.Run(batch)
		if d := maxAbsDelta(want.Data(), got); d > 1e-4 {
			t.Fatalf("%s: engine vs network max |delta| = %g", name, d)
		}
	}
}

// trainSmallResidualNet trains a 5-block residual net briefly on synthetic
// NSL-KDD traffic and returns the network, its pipeline and the generator.
func trainSmallResidualNet(t testing.TB) (*nn.Network, *data.Pipeline, *synth.Generator) {
	t.Helper()
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(600, 1)
	x, y, pipe := data.Preprocess(ds)
	features := pipe.Width()
	classes := ds.Schema.NumClasses()
	rng := rand.New(rand.NewSource(20))
	stack := models.BuildBlockNet(rng, rand.New(rand.NewSource(21)), 5, true,
		models.PaperBlockConfig(features), classes)
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	rows := x.Dim(0)
	net.Fit(x.Reshape(rows, 1, features), y, nn.FitConfig{
		Epochs: 1, BatchSize: 128, Shuffle: true, RNG: rng,
	})
	return net, pipe, gen
}

// TestF32ParityOnFlowCorpus is the acceptance gate: on a 10k-flow corpus
// scored through a trained residual network, the compiled float32 engine's
// scores must stay within 1e-4 of the float64 path, and the two detectors
// must agree on (virtually) every class.
func TestF32ParityOnFlowCorpus(t *testing.T) {
	net, pipe, gen := trainSmallResidualNet(t)
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine()
	f := pipe.Width()

	corpusSize := 10000
	if testing.Short() {
		corpusSize = 2000
	}
	corpus := gen.Generate(corpusSize, 99)

	const batch = 64
	maxDelta := 0.0      // winner-score delta: the verdict semantic
	maxLogitDelta := 0.0 // elementwise per-class bound (stricter: argmax flips can't hide)
	classMismatch := 0
	x64 := tensor.New(batch, f)
	for lo := 0; lo < corpusSize; lo += batch {
		hi := lo + batch
		if hi > corpusSize {
			hi = corpusSize
		}
		rows := hi - lo
		x64 = x64.Resize(rows, f)
		for i := 0; i < rows; i++ {
			pipe.ApplyInto(&corpus.Records[lo+i], x64.Row(i))
		}
		want := net.Predict(x64.Reshape(rows, 1, f))
		in := eng.In(rows)
		for i, v := range x64.Data() {
			in[i] = float32(v)
		}
		got := eng.Run(rows)
		classes := plan.Classes()
		wd := want.Data()
		for r := 0; r < rows; r++ {
			wRow := wd[r*classes : (r+1)*classes]
			gRow := got[r*classes : (r+1)*classes]
			wCls, gCls := 0, 0
			for c := 0; c < classes; c++ {
				if wRow[c] > wRow[wCls] {
					wCls = c
				}
				if gRow[c] > gRow[gCls] {
					gCls = c
				}
				if d := math.Abs(wRow[c] - float64(gRow[c])); d > maxLogitDelta {
					maxLogitDelta = d
				}
			}
			if wCls != gCls {
				classMismatch++
			}
			// Score parity: the reported score is the winning logit.
			if d := math.Abs(wRow[wCls] - float64(gRow[gCls])); d > maxDelta {
				maxDelta = d
			}
		}
	}
	t.Logf("corpus=%d max|score delta|=%.2e max per-class |logit delta|=%.2e class mismatches=%d",
		corpusSize, maxDelta, maxLogitDelta, classMismatch)
	if maxDelta > 1e-4 {
		t.Fatalf("max |score delta| %.3e exceeds 1e-4 over %d flows", maxDelta, corpusSize)
	}
	if maxLogitDelta > 1e-4 {
		t.Fatalf("max per-class |logit delta| %.3e exceeds 1e-4 over %d flows", maxLogitDelta, corpusSize)
	}
	if limit := corpusSize / 1000; classMismatch > limit {
		t.Fatalf("%d class mismatches over %d flows (limit %d)", classMismatch, corpusSize, limit)
	}
}

// trainedDetector compiles trainSmallResidualNet's network into a
// Detector and returns it with the network, the pipeline and fixed-seed
// records drawn from the generator.
func trainedDetector(t *testing.T, n int, seed int64) (*Detector, *nn.Network, *data.Pipeline, []*data.Record) {
	t.Helper()
	net, pipe, gen := trainSmallResidualNet(t)
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	corpus := gen.Generate(n, seed)
	recs := make([]*data.Record, len(corpus.Records))
	for i := range corpus.Records {
		recs[i] = &corpus.Records[i]
	}
	return NewDetector("pelican-f32", pipe, plan), net, pipe, recs
}

// TestDetectorMatchesNetworkPredict scores the same records through the
// Detector and through the float64 network it was compiled from, and
// requires verdict agreement: the class is the f64 argmax and the score is
// within 1e-4 of the f64 winning logit.
func TestDetectorMatchesNetworkPredict(t *testing.T) {
	det, net, pipe, recs := trainedDetector(t, 512, 123)
	f := pipe.Width()
	x := tensor.New(len(recs), f)
	for i, rec := range recs {
		pipe.ApplyInto(rec, x.Row(i))
	}
	logits := net.Predict(x.Reshape(len(recs), 1, f))
	classes := logits.ArgmaxRow()

	got := make([]nids.Verdict, len(recs))
	det.DetectBatch(recs, got)
	mismatch := 0
	for i, v := range got {
		if v.Class != classes[i] || v.IsAttack != (classes[i] != 0) {
			mismatch++
		}
		if want := logits.Row(i)[classes[i]]; math.Abs(v.Score-want) > 1e-4 {
			t.Fatalf("record %d: f32 score %v vs f64 %v", i, v.Score, want)
		}
	}
	if mismatch > 1 {
		t.Fatalf("%d verdict mismatches over %d records", mismatch, len(recs))
	}
}

// TestDetectBatchMatchesDetect proves micro-batched scoring and per-flow
// scoring agree verdict-for-verdict.
func TestDetectBatchMatchesDetect(t *testing.T) {
	det, _, _, recs := trainedDetector(t, 64, 75)
	batched := make([]nids.Verdict, len(recs))
	det.DetectBatch(recs, batched)
	for i, rec := range recs {
		single := det.Detect(rec)
		if single != batched[i] {
			t.Fatalf("record %d: batch verdict %+v != single verdict %+v", i, batched[i], single)
		}
	}
}

// TestDetectBatchConcurrent hammers a shared Detector from several
// goroutines (meaningful under -race): the pooled encode slabs must stay
// private to their caller and the mutex must serialize access to the
// engine arena without corrupting verdicts.
func TestDetectBatchConcurrent(t *testing.T) {
	det, _, _, recs := trainedDetector(t, 32, 76)
	want := make([]nids.Verdict, len(recs))
	det.DetectBatch(recs, want)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]nids.Verdict, len(recs))
			for it := 0; it < 10; it++ {
				det.DetectBatch(recs, got)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent DetectBatch diverged at record %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineSteadyStateAllocFree pins the engine's per-call allocation
// budget at zero once warmed.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const features, classes, batch = 48, 6, 32
	stack := models.BuildBlockNet(rng, rand.New(rand.NewSource(31)), 3, true,
		models.BlockConfig{Features: features, Kernel: 5, Pool: 2, Dropout: 0.4}, classes)
	plan, err := CompileStack(stack)
	if err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine()
	in := eng.In(batch)
	for i := range in {
		in[i] = float32(rng.NormFloat64())
	}
	eng.Run(batch) // warm the arena
	allocs := testing.AllocsPerRun(10, func() { eng.Run(batch) })
	if allocs > 0 {
		t.Fatalf("engine Run allocated %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestEngineGrowsForLargerBatch checks arena growth keeps results correct
// when a bigger batch follows a smaller one.
func TestEngineGrowsForLargerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const features, classes = 16, 4
	stack := models.BuildBlockNet(rng, rand.New(rand.NewSource(41)), 2, true,
		models.BlockConfig{Features: features, Kernel: 3, Pool: 2, Dropout: 0.3}, classes)
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewSGD(0.01, 0))
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine()
	for _, batch := range []int{4, 64, 16} { // grow, then shrink within capacity
		x := tensor.RandNormal(rng, 0, 1, batch, 1, features)
		want := net.Predict(x)
		in := eng.In(batch)
		for i, v := range x.Data() {
			in[i] = float32(v)
		}
		got := eng.Run(batch)
		if d := maxAbsDelta(want.Data(), got); d > 1e-4 {
			t.Fatalf("batch %d after resize: max |delta| = %g", batch, d)
		}
	}
}
