// Package repro_test holds the kernel micro-benchmarks: the cost of one
// forward pass, one train step and one compiled f32 inference pass of
// Residual-41 at the paper's UNSW width, of the layers it is built from
// (ResBlk, GRU, Conv1D), and of synthetic data generation.
//
// Each number has one home. These measure kernels; the paper's tables and
// figures come from cmd/pelican-bench (its smoke runs are the Test*Smoke
// tests of internal/experiments and cmd/pelican-bench); serving
// performance comes from the ledger, go run ./bench.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

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
