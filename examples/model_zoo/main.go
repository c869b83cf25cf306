// Model zoo: build every registered design, print its architecture summary
// and parameter count, then demonstrate the model artifact — train one
// model briefly, save it as a .plcn file, load it into a fresh network,
// and verify the predictions survive the round trip.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small feature width keeps the zoo tour instant; real datasets use
	// 121 (NSL-KDD) or 196 (UNSW-NB15).
	const features, classes = 32, 5
	cfg := models.BlockConfig{Features: features, Kernel: 10, Pool: 2, Dropout: 0.6}

	fmt.Println("=== registered designs ===")
	for _, name := range models.Names() {
		spec, err := models.Lookup(name)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		stack := spec.Build(rng, rand.New(rand.NewSource(2)), cfg, features, classes)
		fmt.Printf("\n%s — %s\n", spec.Name, spec.Description)
		fmt.Printf("  parameters: %d\n", nn.ParamCount(stack.Params()))
	}

	// Architecture detail for the paper's design.
	fmt.Println("\n=== Pelican (Residual-41) layer stack ===")
	rng := rand.New(rand.NewSource(3))
	pelican := models.BuildPelican(rng, rand.New(rand.NewSource(4)), cfg, classes)
	fmt.Print(pelican.Summary())

	// Artifact round trip on real-shaped data.
	fmt.Println("=== artifact round trip ===")
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		return err
	}
	ds := gen.Generate(800, 5)
	x, y, pipe := data.Preprocess(ds)
	f := gen.Schema().EncodedWidth()
	k := gen.Schema().NumClasses()

	block := models.PaperBlockConfig(f)
	r := rand.New(rand.NewSource(10))
	src := nn.NewNetwork(models.BuildResidual21(r, rand.New(rand.NewSource(11)), block, k),
		nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	x3 := x.Reshape(x.Dim(0), 1, f)
	src.Fit(x3, y, nn.FitConfig{Epochs: 2, BatchSize: 128, Shuffle: true,
		RNG: rand.New(rand.NewSource(6))})

	art, err := serve.NewArtifact("residual-21", block, gen.Schema(), pipe, src)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "model_zoo")
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
	fmt.Printf("artifact %s: %d bytes\n", loaded.Version(), len(loaded.Bytes()))

	// A fresh network built from the file — weights must come from it.
	dst, _, err := loaded.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if err != nil {
		return err
	}
	a, b := src.Predict(x3), dst.Predict(x3)
	if !tensor.ApproxEqual(a, b, 1e-12) {
		return fmt.Errorf("loaded model diverges from saved model")
	}
	fmt.Println("loaded predictions match saved model exactly")
	return nil
}
