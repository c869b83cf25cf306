package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/anomaly"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// DriftPoint is one drift stage's outcome for both detector families.
type DriftPoint struct {
	// Mix is the fraction of traffic drawn from the drifted distribution.
	Mix float64
	// Supervised is the trained classifier's binary metrics at this stage.
	Supervised metrics.BinaryCounts
	// Anomaly is the normal-profile detector's metrics at this stage.
	Anomaly metrics.BinaryCounts
}

// DriftResult is the full sweep.
type DriftResult struct {
	Points []DriftPoint
}

// DriftMixes are the evaluated drift fractions: 0 = the training
// distribution, 1 = fully drifted.
var DriftMixes = []float64{0, 0.25, 0.5, 0.75, 1}

// RunDriftStudy quantifies the paper's §VI "Reason two": as the network
// evolves, a fixed notion of normal stops being representative. Both a
// supervised LuNet and a calibrated Gaussian anomaly profile are trained
// on the original distribution, then evaluated on traffic mixes that
// drift toward a shifted-profile domain. The anomaly detector's FAR should
// inflate with drift much faster than the supervised model degrades.
func RunDriftStudy(p Profile, log io.Writer) (*DriftResult, error) {
	cfg, records, epochs, err := p.DatasetConfig(NSL)
	if err != nil {
		return nil, err
	}
	baseGen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	driftCfg := cfg
	driftCfg.ProfileSeed = cfg.ProfileSeed + 31337
	driftGen, err := synth.New(driftCfg)
	if err != nil {
		return nil, err
	}

	// Train both detectors on the base distribution.
	train := baseGen.Generate(records, p.Seed)
	x, y, pipe := data.Preprocess(train)
	features := baseGen.Schema().EncodedWidth()
	classes := baseGen.Schema().NumClasses()

	rng := rand.New(rand.NewSource(p.Seed + 5))
	stack := models.BuildLuNet(rng, rand.New(rand.NewSource(p.Seed+6)), 2,
		models.PaperBlockConfig(features), classes)
	opt := nn.NewRMSprop(p.LR)
	opt.MaxNorm = p.GradClip
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	if log != nil {
		fmt.Fprintf(log, "  [ext-drift] training supervised detector on %d records\n", x.Dim(0))
	}
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{
		Epochs: epochs, BatchSize: p.Batch, Shuffle: true, RNG: rng,
	})

	var normalRows []int
	for i, yi := range y {
		if yi == 0 {
			normalRows = append(normalRows, i)
		}
	}
	normal := tensor.New(len(normalRows), features)
	for i, j := range normalRows {
		copy(normal.Row(i), x.Row(j))
	}
	profile, err := anomaly.Calibrate(anomaly.NewGaussian(), normal, 0.99)
	if err != nil {
		return nil, err
	}

	res := &DriftResult{}
	testN := records / 4
	for mi, mix := range DriftMixes {
		testRNG := rand.New(rand.NewSource(p.Seed + 100 + int64(mi)))
		supConf := metrics.NewConfusion(2)
		anoConf := metrics.NewConfusion(2)
		for i := 0; i < testN; i++ {
			gen := baseGen
			if testRNG.Float64() < mix {
				gen = driftGen
			}
			class := 0
			if testRNG.Float64() < 0.4 {
				class = 1 + testRNG.Intn(classes-1)
			}
			rec := gen.SampleClass(testRNG, class)
			row := pipe.Apply(&rec)
			actual := 0
			if class != 0 {
				actual = 1
			}

			logits := net.Predict(tensor.FromSlice(row, 1, 1, features))
			supPred := 0
			if logits.ArgmaxRow()[0] != 0 {
				supPred = 1
			}
			supConf.Add(actual, supPred)

			anoPred := 0
			if profile.IsAttack(row) {
				anoPred = 1
			}
			anoConf.Add(actual, anoPred)
		}
		res.Points = append(res.Points, DriftPoint{
			Mix:        mix,
			Supervised: supConf.Binary(0),
			Anomaly:    anoConf.Binary(0),
		})
		if log != nil {
			fmt.Fprintf(log, "  [ext-drift] mix %.2f done\n", mix)
		}
	}
	return res, nil
}

// FormatDrift renders the sweep.
func FormatDrift(res *DriftResult) string {
	out := "EXT: DETECTOR BEHAVIOUR UNDER TRAFFIC DRIFT (paper §VI \"Reason two\")\n"
	out += fmt.Sprintf("%8s %28s %28s\n", "", "supervised (LuNet)", "anomaly (gaussian)")
	out += fmt.Sprintf("%8s %9s %9s %8s %9s %9s %8s\n",
		"drift", "DR%", "FAR%", "ACC%", "DR%", "FAR%", "ACC%")
	for _, pt := range res.Points {
		out += fmt.Sprintf("%8.2f %9.2f %9.2f %8.2f %9.2f %9.2f %8.2f\n",
			pt.Mix,
			pt.Supervised.DR()*100, pt.Supervised.FAR()*100, pt.Supervised.ACC()*100,
			pt.Anomaly.DR()*100, pt.Anomaly.FAR()*100, pt.Anomaly.ACC()*100)
	}
	return out
}
