package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/anomaly"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/signature"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// RunAnomalyComparison quantifies the paper's §VI argument: anomaly
// detection (profile of normal traffic only) yields a much higher
// false-alarm rate than supervised learning on the same traffic. It
// evaluates a Gaussian profile and a k-NN profile against a supervised
// LuNet on NSL-KDD-shaped traffic.
func RunAnomalyComparison(p Profile, log io.Writer) ([]metrics.Summary, error) {
	prep, err := prepare(p, NSL)
	if err != nil {
		return nil, err
	}
	fold := prep.folds[0]
	var rows []metrics.Summary

	// Anomaly detectors: profile on the normal rows of the training split.
	var normalIdx []int
	for _, i := range fold.Train {
		if prep.y[i] == 0 {
			normalIdx = append(normalIdx, i)
		}
	}
	normal := tensor.New(len(normalIdx), prep.features)
	for i, j := range normalIdx {
		copy(normal.Row(i), prep.x.Row(j))
	}

	knn := anomaly.NewKNN(5)
	knn.MaxRef = 1500
	detectors := []anomaly.Detector{anomaly.NewGaussian(), knn}
	for _, det := range detectors {
		th, err := anomaly.Calibrate(det, normal, 0.99)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", det.Name(), err)
		}
		conf := metrics.NewConfusion(2)
		for _, i := range fold.Test {
			actual := 0
			if prep.y[i] != 0 {
				actual = 1
			}
			pred := 0
			if th.IsAttack(prep.x.Row(i)) {
				pred = 1
			}
			conf.Add(actual, pred)
		}
		rows = append(rows, metrics.Summarize("anomaly: "+det.Name(), conf, 0))
		if log != nil {
			fmt.Fprintf(log, "  [ext-anomaly] %s done\n", det.Name())
		}
	}

	// Supervised reference on identical traffic.
	ev, err := trainEval(p, prep, "lunet", log)
	if err != nil {
		return nil, err
	}
	s := ev.Summary
	s.Design = "supervised: LuNet"
	rows = append(rows, s)
	return rows, nil
}

// RunSignatureStudy measures the signature-based baseline of §VI: rules
// mined from known attacks detect in-distribution attacks but go blind on
// variants (the same generator with a perturbed profile seed — "advanced
// variants of previously known attacks").
func RunSignatureStudy(p Profile, log io.Writer) ([]metrics.Summary, error) {
	cfg, records, _, err := p.DatasetConfig(NSL)
	if err != nil {
		return nil, err
	}
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	train := gen.Generate(records, p.Seed)
	rules, err := signature.MineRules(train, 3)
	if err != nil {
		return nil, err
	}
	eng, err := signature.NewEngine(train.Schema, rules)
	if err != nil {
		return nil, err
	}
	evalSet := func(name string, g *synth.Generator, seed int64) metrics.Summary {
		test := g.Generate(records/3, seed)
		conf := metrics.NewConfusion(2)
		for i := range test.Records {
			r := &test.Records[i]
			actual := 0
			if r.Label != 0 {
				actual = 1
			}
			pred := 0
			if _, ok := eng.Match(r); ok {
				pred = 1
			}
			conf.Add(actual, pred)
		}
		return metrics.Summarize(name, conf, 0)
	}

	rows := []metrics.Summary{evalSet("signatures vs known attacks", gen, p.Seed+1)}

	// Attack variants: same class structure, shifted generative profiles.
	varCfg := cfg
	varCfg.ProfileSeed = cfg.ProfileSeed + 9999
	varGen, err := synth.New(varCfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalSet("signatures vs attack variants", varGen, p.Seed+2))
	if log != nil {
		fmt.Fprintf(log, "  [ext-signature] mined %d rules\n", eng.RuleCount())
	}
	return rows, nil
}

// AblationVariant names one ResBlk wiring variant.
type AblationVariant string

// The ablation variants: the paper's design plus the plausible alternatives
// it implicitly rejects (§IV: "the short cut is connected from the BN
// output to facilitate the initialization of overall deep network").
const (
	AblationPaper      AblationVariant = "shortcut-from-BN (paper)"
	AblationFromInput  AblationVariant = "shortcut-from-input"
	AblationNoGRU      AblationVariant = "conv-only body"
	AblationNoConv     AblationVariant = "gru-only body"
	AblationNoShortcut AblationVariant = "no shortcut (plain)"
)

// buildAblationNet assembles a 10-block network with the given block
// variant.
func buildAblationNet(rng, dropRNG *rand.Rand, v AblationVariant, cfg models.BlockConfig, classes int) *nn.Sequential {
	f := cfg.Features
	block := func() nn.Layer {
		switch v {
		case AblationPaper:
			return models.NewResidualBlock(rng, dropRNG, cfg)
		case AblationNoShortcut:
			return models.NewPlainBlock(rng, dropRNG, cfg)
		case AblationFromInput:
			// Residual wraps the WHOLE block including the leading BN.
			return nn.NewResidual(nn.NewSequential(
				nn.NewBatchNorm(f),
				nn.NewConv1D(rng, f, f, cfg.Kernel, nn.PaddingSame),
				nn.NewReLU(),
				nn.NewMaxPool1D(cfg.Pool),
				nn.NewBatchNorm(f),
				nn.NewGRU(rng, f, f, true),
				nn.NewReshape(-1, f),
				nn.NewDropout(dropRNG, cfg.Dropout),
			))
		case AblationNoGRU:
			return nn.NewPreShortcut(nn.NewBatchNorm(f), nn.NewSequential(
				nn.NewConv1D(rng, f, f, cfg.Kernel, nn.PaddingSame),
				nn.NewReLU(),
				nn.NewMaxPool1D(cfg.Pool),
				nn.NewDropout(dropRNG, cfg.Dropout),
			))
		case AblationNoConv:
			return nn.NewPreShortcut(nn.NewBatchNorm(f), nn.NewSequential(
				nn.NewBatchNorm(f),
				nn.NewGRU(rng, f, f, true),
				nn.NewReshape(-1, f),
				nn.NewDropout(dropRNG, cfg.Dropout),
			))
		}
		panic(fmt.Sprintf("experiments: unknown ablation variant %q", v))
	}
	s := nn.NewSequential()
	for i := 0; i < 10; i++ {
		s.Add(block())
	}
	s.Add(nn.NewGlobalAvgPool1D())
	s.Add(nn.NewDense(rng, f, classes))
	return s
}

// AblationVariants lists the studied variants in report order.
var AblationVariants = []AblationVariant{
	AblationPaper, AblationFromInput, AblationNoGRU, AblationNoConv, AblationNoShortcut,
}

// RunAblation trains each ResBlk variant at depth 10 on UNSW-NB15 and
// reports the paper metrics — the design-choice study behind the paper's
// shortcut placement (§IV).
func RunAblation(p Profile, log io.Writer) ([]metrics.Summary, error) {
	prep, err := prepare(p, UNSW)
	if err != nil {
		return nil, err
	}
	fold := prep.folds[0]
	xTr, yTr := gather(prep.x, prep.y, fold.Train)
	xTe, yTe := gather(prep.x, prep.y, fold.Test)

	var rows []metrics.Summary
	for vi, v := range AblationVariants {
		rng := rand.New(rand.NewSource(p.Seed + int64(vi)*977))
		dropRNG := rand.New(rand.NewSource(p.Seed + int64(vi)*977 + 1))
		cfg := models.PaperBlockConfig(prep.features)
		stack := buildAblationNet(rng, dropRNG, v, cfg, prep.classes)
		opt := nn.NewRMSprop(p.LR)
		opt.MaxNorm = p.GradClip
		net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
		net.Fit(xTr, yTr, nn.FitConfig{
			Epochs: prep.epochs, BatchSize: p.Batch, Shuffle: true, RNG: rng,
			Verbose: func(st nn.EpochStats) {
				if log != nil {
					fmt.Fprintf(log, "  [ablation %s] epoch %d train_loss=%.4f\n", v, st.Epoch, st.TrainLoss)
				}
			},
		})
		conf := metrics.NewConfusion(prep.classes)
		conf.AddAll(yTe, net.PredictClasses(xTe, p.Batch))
		rows = append(rows, metrics.Summarize(string(v), conf, 0))
	}
	return rows, nil
}
