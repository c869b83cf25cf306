// Quickstart: the smallest end-to-end use of the library. It tours the
// model registry, generates NSL-KDD-shaped traffic, trains Pelican's
// smaller sibling (Residual-21) for a few epochs, evaluates it with the
// paper's metrics overall and per class, and round-trips the trained model
// through a .plcn artifact. main_test.go pins every line it prints.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. The registry: every design pelican-train and pelican-bench accept,
	// built at a small width (the datasets encode to 121 or 196 features).
	fmt.Fprintln(w, "registered designs at 32 features, 5 classes:")
	small := models.BlockConfig{Features: 32, Kernel: 10, Pool: 2, Dropout: 0.6}
	for _, name := range models.Names() {
		spec, err := models.Lookup(name)
		if err != nil {
			return err
		}
		stack := spec.Build(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), small, 32, 5)
		fmt.Fprintf(w, "  %-12s %7d params  %s\n", spec.Name, nn.ParamCount(stack.Params()), spec.Description)
	}

	// 2. Generate a dataset (the stand-in for downloading NSL-KDD) and
	// preprocess it exactly as the paper does (§V-A): one-hot encode and
	// standardize.
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		return err
	}
	ds := gen.Generate(1500, 42)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth() // 121 for NSL-KDD
	classes := gen.Schema().NumClasses()    // 5

	// 3. Split train/test; models take the paper's (batch, 1, F) shape.
	rng := rand.New(rand.NewSource(1))
	fold := data.TrainTestSplit(rng, y, 0.2)
	gather := func(idx []int) (*tensor.Tensor, []int) {
		out := tensor.New(len(idx), features)
		labels := make([]int, len(idx))
		for i, j := range idx {
			copy(out.Row(i), x.Row(j))
			labels[i] = y[j]
		}
		return out.Reshape(len(idx), 1, features), labels
	}
	xTr, yTr := gather(fold.Train)
	xTe, yTe := gather(fold.Test)

	// 4. Build Residual-21 (5 residual blocks) and train with RMSprop,
	// the paper's optimizer (Table I).
	block := models.PaperBlockConfig(features)
	stack := models.BuildResidual21(rng, rand.New(rand.NewSource(2)), block, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)

	fmt.Fprintf(w, "training Residual-21 (%d parameters) on %d records...\n",
		nn.ParamCount(stack.Params()), xTr.Dim(0))
	net.Fit(xTr, yTr, nn.FitConfig{
		Epochs: 3, BatchSize: 256, Shuffle: true, RNG: rng,
		TestX: xTe, TestLabels: yTe,
		Verbose: func(st nn.EpochStats) {
			fmt.Fprintf(w, "  epoch %d: train_loss=%.4f test_acc=%.4f\n",
				st.Epoch, st.TrainLoss, st.TestAcc)
		},
	})

	// 5. Evaluate with the paper's DR / ACC / FAR (Eqs. 3–5), then per
	// class: an aggregate DR can hide a rare attack class the model misses.
	conf := metrics.NewConfusion(classes)
	conf.AddAll(yTe, net.PredictClasses(xTe, 256))
	s := metrics.Summarize("Residual-21", conf, 0)
	fmt.Fprintf(w, "DR=%.2f%%  ACC=%.2f%%  FAR=%.2f%%\n", s.DR, s.ACC, s.FAR)
	for _, rep := range conf.PerClass() {
		fmt.Fprintf(w, "  %-8s recall=%.3f precision=%.3f n=%d\n",
			gen.Schema().ClassNames[rep.Class], rep.Recall, rep.Precision, rep.Support)
	}

	// 6. Ship it: save the model as a self-contained artifact (weights,
	// schema and scaler), load it into a fresh network, and check that
	// the loaded network predicts exactly what the trained one does.
	art, err := serve.NewArtifact("residual-21", block, gen.Schema(), pipe, net)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "quickstart")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "residual-21.plcn")
	if err := serve.SaveArtifactFile(path, art); err != nil {
		return err
	}
	loaded, err := serve.LoadArtifactFile(path)
	if err != nil {
		return err
	}
	dst, _, err := loaded.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if err != nil {
		return err
	}
	// The artifact stores f64 tensors, so nothing may round: compare bits.
	a, b := net.Predict(xTe).Data(), dst.Predict(xTe).Data()
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("loaded model predicts %v for output %d, trained model %v", b[i], i, a[i])
		}
	}
	fmt.Fprintf(w, "artifact %s: %d bytes; loaded predictions match the trained model bit for bit\n",
		loaded.Version(), len(loaded.Bytes()))
	return nil
}
