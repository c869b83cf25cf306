// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table and figure in the paper's evaluation (§V), each running the
// corresponding experiment at the smoke profile so `go test -bench=.`
// regenerates every artifact's machinery in minutes, plus kernel
// micro-benchmarks for the layers Pelican is built from.
//
// The default profile is reached through cmd/pelican-bench (no results
// file is checked in: `pelican-bench -exp all` prints them); these
// benchmarks verify the same code paths end-to-end and measure their cost.
package repro_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// smoke returns the benchmark workload profile.
func smoke() experiments.Profile { return experiments.SmokeProfile() }

// BenchmarkTable1ParameterSetting regenerates Table I (parameter echo).
func BenchmarkTable1ParameterSetting(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		if out := experiments.FormatTable1(p); out == "" {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkFig2Degradation regenerates Fig. 2: the LuNet depth sweep whose
// accuracy degradation motivates residual learning.
func BenchmarkFig2Degradation(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no sweep points")
		}
	}
}

// benchFourNets runs the four-network experiment that powers Fig. 5 and
// Tables II–IV on one dataset.
func benchFourNets(b *testing.B, id experiments.DatasetID) {
	b.Helper()
	p := smoke()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFourNets(p, id, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Evals) != 4 {
			b.Fatalf("got %d evals", len(res.Evals))
		}
	}
}

// BenchmarkFourNetsUNSWNB15 is one run for two artifacts: Fig. 5(a)/(b),
// the four networks' train and test loss curves on UNSW-NB15, and Table IV,
// their DR/ACC/FAR there.
func BenchmarkFourNetsUNSWNB15(b *testing.B) { benchFourNets(b, experiments.UNSW) }

// BenchmarkFourNetsNSLKDD is the same on NSL-KDD: Fig. 5(c)/(d) and
// Table III.
func BenchmarkFourNetsNSLKDD(b *testing.B) { benchFourNets(b, experiments.NSL) }

// BenchmarkTable2TruePositivesFalseAlarms regenerates Table II: total TP
// and FP of the four networks on both datasets.
func BenchmarkTable2TruePositivesFalseAlarms(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		nsl, err := experiments.RunFourNets(p, experiments.NSL, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		unsw, err := experiments.RunFourNets(p, experiments.UNSW, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if out := experiments.FormatTable2(nsl, unsw); out == "" {
			b.Fatal("empty Table II")
		}
	}
}

// BenchmarkTable5ComparativeStudy regenerates Table V: Pelican against
// AdaBoost, SVM (RBF), HAST-IDS, CNN, LSTM, MLP, RF and LuNet.
func BenchmarkTable5ComparativeStudy(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(experiments.Table5Designs) {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// BenchmarkExtAnomalyComparison runs the §VI anomaly-vs-supervised study.
func BenchmarkExtAnomalyComparison(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAnomalyComparison(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkExtSignatureStudy runs the §VI signature variant-blindness
// study.
func BenchmarkExtSignatureStudy(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunSignatureStudy(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkExtResBlkAblation runs the shortcut-placement ablation.
func BenchmarkExtResBlkAblation(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblation(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(experiments.AblationVariants) {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkExtTransferLearning runs the §V-G transfer-learning study.
func BenchmarkExtTransferLearning(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransfer(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if res.TargetRecords <= 0 {
			b.Fatal("bad transfer result")
		}
	}
}

// BenchmarkTable5ExtendedBaselines runs the extra classical baselines.
func BenchmarkTable5ExtendedBaselines(b *testing.B) {
	p := smoke()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5Extended(p, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(experiments.Table5XDesigns) {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// --- kernel micro-benchmarks ------------------------------------------------

// pelicanAtPaperWidth builds Pelican at the UNSW feature width (196) for
// layer-cost measurement.
func pelicanAtPaperWidth(tb testing.TB) (*nn.Network, *tensor.Tensor, []int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const features, classes, batch = 196, 10, 64
	stack := models.BuildPelican(rng, rand.New(rand.NewSource(2)),
		models.PaperBlockConfig(features), classes)
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	x := tensor.RandNormal(rng, 0, 1, batch, 1, features)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % classes
	}
	return net, x, y
}

// BenchmarkPelicanForward measures one inference pass of the full
// Residual-41 network at the paper's UNSW width (batch 64).
func BenchmarkPelicanForward(b *testing.B) {
	net, x, _ := pelicanAtPaperWidth(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

// BenchmarkInferF32 measures the compiled float32 inference engine on the
// exact BenchmarkPelicanForward workload (Residual-41, UNSW width, batch
// 64) — the f64-vs-f32 serving A/B pair. records/s is reported so the two
// engines compare directly in one run.
func BenchmarkInferF32(b *testing.B) {
	net, x, _ := pelicanAtPaperWidth(b)
	plan, err := infer.Compile(net)
	if err != nil {
		b.Fatal(err)
	}
	eng := plan.NewEngine()
	const batch = 64
	in := eng.In(batch)
	for i, v := range x.Data() {
		in[i] = float32(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(batch)
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkPelicanTrainStep measures one full train step (forward,
// backward, RMSprop update) of Residual-41 at the paper's UNSW width.
func BenchmarkPelicanTrainStep(b *testing.B) {
	net, x, y := pelicanAtPaperWidth(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(x, y)
	}
}

// BenchmarkResidualBlockForward isolates one ResBlk at UNSW width.
func BenchmarkResidualBlockForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	blk := models.NewResidualBlock(rng, rand.New(rand.NewSource(4)),
		models.PaperBlockConfig(196))
	x := tensor.RandNormal(rng, 0, 1, 64, 1, 196)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Forward(x, true)
	}
}

// BenchmarkGRUForward measures the GRU layer alone (batch 64, 196 units).
func BenchmarkGRUForward(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	gru := nn.NewGRU(rng, 196, 196, true)
	x := tensor.RandNormal(rng, 0, 1, 64, 1, 196)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gru.Forward(x, true)
	}
}

// BenchmarkConv1DForward measures the conv layer alone (kernel 10,
// batch 64, 196→196 channels).
func BenchmarkConv1DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	conv := nn.NewConv1D(rng, 196, 196, 10, nn.PaddingSame)
	x := tensor.RandNormal(rng, 0, 1, 64, 1, 196)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

// BenchmarkSyntheticGeneration measures dataset generation throughput.
func BenchmarkSyntheticGeneration(b *testing.B) {
	gen := synth.MustNew(synth.UNSWNB15Config())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Generate(1000, int64(i))
	}
}
