// Custom model: compose the nn layer library directly instead of using the
// models registry — here, a hybrid "wide residual" variant that halves the
// paper's depth but doubles each block's convolution stages, demonstrating
// how downstream users can experiment with their own block designs against
// the same data and metrics. main_test.go pins every line it prints.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// wideBlock is a custom residual block: BN head with a two-stage conv body
// (the paper's block uses one conv + one GRU; this trades recurrence for a
// second spatial stage).
func wideBlock(rng, dropRNG *rand.Rand, f int) nn.Layer {
	body := nn.NewSequential(
		nn.NewConv1D(rng, f, f, 5, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewConv1D(rng, f, f, 5, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewBatchNorm(f),
		nn.NewDropout(dropRNG, 0.4),
	)
	return nn.NewPreShortcut(nn.NewBatchNorm(f), body)
}

func run(w io.Writer) error {
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		return err
	}
	ds := gen.Generate(1500, 99)
	x, y, _ := data.Preprocess(ds)
	f := gen.Schema().EncodedWidth()
	k := gen.Schema().NumClasses()

	rng := rand.New(rand.NewSource(1))
	dropRNG := rand.New(rand.NewSource(2))

	// Five wide residual blocks + the paper's GAP + dense head.
	stack := nn.NewSequential()
	for i := 0; i < 5; i++ {
		stack.Add(wideBlock(rng, dropRNG, f))
	}
	stack.Add(nn.NewGlobalAvgPool1D())
	stack.Add(nn.NewDense(rng, f, k))

	fmt.Fprintln(w, "custom wide-residual architecture:")
	fmt.Fprint(w, stack.Summary())

	opt := nn.NewRMSprop(0.005)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)

	fold := data.TrainTestSplit(rng, y, 0.2)
	gather := func(idx []int) (*tensor.Tensor, []int) {
		out := tensor.New(len(idx), f)
		labels := make([]int, len(idx))
		for i, j := range idx {
			copy(out.Row(i), x.Row(j))
			labels[i] = y[j]
		}
		return out.Reshape(len(idx), 1, f), labels
	}
	xTr, yTr := gather(fold.Train)
	xTe, yTe := gather(fold.Test)

	// Cosine-annealed learning rate with early stopping — training-loop
	// features beyond the paper's fixed-rate setup.
	net.Fit(xTr, yTr, nn.FitConfig{
		Epochs: 4, BatchSize: 256, Shuffle: true, RNG: rng,
		TestX: xTe, TestLabels: yTe,
		Schedule: nn.CosineDecay{Floor: 0.1},
		Patience: 3,
		Verbose: func(st nn.EpochStats) {
			fmt.Fprintf(w, "  epoch %d: train_loss=%.4f test_loss=%.4f test_acc=%.4f\n",
				st.Epoch, st.TrainLoss, st.TestLoss, st.TestAcc)
		},
	})

	conf := metrics.NewConfusion(k)
	conf.AddAll(yTe, net.PredictClasses(xTe, 256))
	s := metrics.Summarize("wide-residual", conf, 0)
	fmt.Fprintf(w, "DR=%.2f%%  ACC=%.2f%%  FAR=%.2f%%\n", s.DR, s.ACC, s.FAR)
	return nil
}
