package repro_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// tinyConfig is a small NSL-shaped dataset for fast integration tests.
func tinyConfig() synth.Config {
	cfg := synth.NSLKDDConfig()
	cfg.Name = "nsl-integration"
	cfg.NumericName = cfg.NumericName[:8]
	cfg.Cats = []synth.CatSpec{{Name: "proto", Card: 3}, {Name: "flag", Card: 4}}
	cfg.Classes = []synth.ClassSpec{
		{Name: "normal", Weight: 0.55},
		{Name: "dos", Weight: 0.30},
		{Name: "probe", Weight: 0.15},
	}
	cfg.LatentDim = 6
	cfg.QuadTerms = 4
	return cfg
}

// TestEndToEndTrainServeDetect exercises the full production path: generate
// → preprocess → train → checkpoint to disk → reload → serve in the NIDS
// pipeline → verify the pipeline's counters agree with offline evaluation.
func TestEndToEndTrainServeDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	gen, err := synth.New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	train := gen.Generate(1000, 31)
	x, y, pipe := data.Preprocess(train)
	f := gen.Schema().EncodedWidth()
	k := gen.Schema().NumClasses()

	net := nn.NewNetwork(models.BuildMLP(rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), f, k),
		nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005))
	rng := rand.New(rand.NewSource(2))
	net.Fit(x.Reshape(x.Dim(0), 1, f), y, nn.FitConfig{
		Epochs: 6, BatchSize: 128, Shuffle: true, RNG: rng,
	})

	// Save the artifact through the filesystem, as a deployment would,
	// and rebuild the detector from the file alone.
	art, err := serve.NewArtifact("mlp", models.PaperBlockConfig(f), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "detector.plcn")
	if err := serve.SaveArtifactFile(path, art); err != nil {
		t.Fatal(err)
	}
	onDisk, err := serve.LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	det, err := onDisk.NewInferDetector()
	if err != nil {
		t.Fatal(err)
	}

	// Serve the loaded model on a stream.
	src, err := flow.NewSource(gen, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := nids.New(det, nids.Config{Workers: 4})
	flows := make(chan flow.Flow, 1)

	// Keep a copy of the flows to evaluate offline (source is
	// deterministic: regenerate the same stream).
	go src.Run(context.Background(), flows, 500)
	if err := pl.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Processed != 500 {
		t.Fatalf("processed %d, want 500", st.Processed)
	}

	// Offline evaluation on the identical stream must agree exactly with
	// the pipeline counters.
	src2, err := flow.NewSource(gen, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp, tn, fn int64
	for i := 0; i < 500; i++ {
		fl := src2.Next()
		v := det.Detect(&fl.Record)
		attack := fl.TrueClass != 0
		switch {
		case v.IsAttack && attack:
			tp++
		case v.IsAttack && !attack:
			fp++
		case !v.IsAttack && attack:
			fn++
		default:
			tn++
		}
	}
	if tp != st.TruePos || fp != st.FalseAlarms || fn != st.Missed || tn != st.TrueNeg {
		t.Fatalf("pipeline counters (%d/%d/%d/%d) disagree with offline replay (%d/%d/%d/%d)",
			st.TruePos, st.FalseAlarms, st.Missed, st.TrueNeg, tp, fp, fn, tn)
	}
}

// TestExperimentDeterminism verifies the whole experiment stack is
// bit-reproducible: two runs at the same profile+seed give identical
// summaries.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p := experiments.SmokeProfile()
	a, err := experiments.RunFourNets(p, experiments.NSL, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.RunFourNets(p, experiments.NSL, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Evals {
		sa, sb := a.Evals[i].Summary, b.Evals[i].Summary
		if sa != sb {
			t.Fatalf("run %d not deterministic: %+v vs %+v", i, sa, sb)
		}
		for e := range a.Evals[i].Curve.Train {
			if a.Evals[i].Curve.Train[e] != b.Evals[i].Curve.Train[e] {
				t.Fatalf("loss curves diverge at epoch %d", e)
			}
		}
	}
}

// TestCSVRoundTripPreservesTraining verifies a dataset exported to CSV and
// re-imported preprocesses to the identical matrix.
func TestCSVRoundTripPreservesTraining(t *testing.T) {
	gen, err := synth.New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(300, 41)
	var buf bytes.Buffer
	if err := data.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	ds2, err := data.ReadCSV(&buf, ds.Schema)
	if err != nil {
		t.Fatal(err)
	}
	x1, y1, _ := data.Preprocess(ds)
	x2, y2, _ := data.Preprocess(ds2)
	if !tensor.ApproxEqual(x1, x2, 1e-12) {
		t.Fatal("preprocessed matrices differ after CSV round trip")
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("label %d differs after round trip", i)
		}
	}
}

// TestMetricsAgreeWithNetworkAccuracy cross-checks metrics.Confusion
// against nn.Accuracy on the same predictions.
func TestMetricsAgreeWithNetworkAccuracy(t *testing.T) {
	gen, err := synth.New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(400, 51)
	x, y, _ := data.Preprocess(ds)
	f := gen.Schema().EncodedWidth()
	k := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(3))
	net := nn.NewNetwork(
		models.BuildMLP(rng, rand.New(rand.NewSource(4)), f, k),
		nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005))
	x3 := x.Reshape(x.Dim(0), 1, f)
	net.Fit(x3, y, nn.FitConfig{Epochs: 3, BatchSize: 128, Shuffle: true, RNG: rng})

	logits := net.Predict(x3)
	accA := nn.Accuracy(logits, y)
	conf := metrics.NewConfusion(k)
	conf.AddAll(y, logits.ArgmaxRow())
	accB := conf.MulticlassAccuracy()
	if accA != accB {
		t.Fatalf("nn.Accuracy %v != confusion accuracy %v", accA, accB)
	}
}
