package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// TransferResult compares training from scratch on scarce target data
// against pretraining on a related source domain and fine-tuning — the
// mitigation for training-data insufficiency the paper discusses in §V-G
// and the authors explored in their transfer-learning work [16].
type TransferResult struct {
	TargetRecords int
	ScratchACC    float64
	TransferACC   float64
	SourceACC     float64 // source-pretrained model applied directly (no fine-tune)
}

// RunTransfer pretrains Residual-21 on a large draw of the NSL-shaped
// source domain, then adapts it to an attack-variant target domain (same
// schema, shifted class profiles) with only a small labeled sample —
// versus training from scratch on that sample.
func RunTransfer(p Profile, log io.Writer) (*TransferResult, error) {
	cfg, records, epochs, err := p.DatasetConfig(NSL)
	if err != nil {
		return nil, err
	}
	srcGen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	varCfg := cfg
	varCfg.ProfileSeed = cfg.ProfileSeed + 4242 // the "new attack variants"
	tgtGen, err := synth.New(varCfg)
	if err != nil {
		return nil, err
	}

	// Source: plentiful labeled data. Target: scarce labels + a test set.
	targetRecords := records / 10
	srcDS := srcGen.Generate(records, p.Seed)
	tgtTrainDS := tgtGen.Generate(targetRecords, p.Seed+1)
	tgtTestDS := tgtGen.Generate(records/3, p.Seed+2)

	// One shared preprocessing pipeline fitted on source (the deployed
	// encoder/scaler — the target domain reuses it, as a real system would).
	xSrc, ySrc, pipe := data.Preprocess(srcDS)
	encode := func(ds *data.Dataset) (*tensor.Tensor, []int) {
		x := tensor.New(ds.Len(), pipe.Enc.Width())
		y := make([]int, ds.Len())
		for i := range ds.Records {
			row := pipe.Apply(&ds.Records[i])
			copy(x.Row(i), row)
			y[i] = ds.Records[i].Label
		}
		return x.Reshape(ds.Len(), 1, pipe.Enc.Width()), y
	}
	xTgtTr, yTgtTr := encode(tgtTrainDS)
	xTgtTe, yTgtTe := encode(tgtTestDS)
	xSrc3 := xSrc.Reshape(xSrc.Dim(0), 1, xSrc.Dim(1))

	features := srcGen.Schema().EncodedWidth()
	classes := srcGen.Schema().NumClasses()
	build := func(seed int64) *nn.Network {
		rng := rand.New(rand.NewSource(seed))
		stack := models.BuildResidual21(rng, rand.New(rand.NewSource(seed+1)),
			models.PaperBlockConfig(features), classes)
		opt := nn.NewRMSprop(p.LR)
		opt.MaxNorm = p.GradClip
		return nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	}
	accOn := func(net *nn.Network) float64 {
		conf := metrics.NewConfusion(classes)
		conf.AddAll(yTgtTe, net.PredictClasses(xTgtTe, p.Batch))
		return conf.Binary(0).ACC() * 100
	}
	fitCfg := func(rng *rand.Rand, ep int) nn.FitConfig {
		return nn.FitConfig{Epochs: ep, BatchSize: p.Batch, Shuffle: true, RNG: rng}
	}

	// 1. Pretrain on source.
	pre := build(p.Seed)
	rng := rand.New(rand.NewSource(p.Seed + 7))
	if log != nil {
		fmt.Fprintf(log, "  [ext-transfer] pretraining on %d source records\n", xSrc.Dim(0))
	}
	pre.Fit(xSrc3, ySrc, fitCfg(rng, epochs))
	srcACC := accOn(pre)

	// 2. Fine-tune a copy on the scarce target sample. The copy is made by
	// a state round trip so the pretrained model remains intact.
	tuned := build(p.Seed + 100)
	if err := tuned.SetState(pre.State()); err != nil {
		return nil, err
	}
	tuned.Fit(xTgtTr, yTgtTr, fitCfg(rng, maxEpochs(epochs/2, 2)))
	transferACC := accOn(tuned)

	// 3. From-scratch baseline on the same scarce sample.
	scratch := build(p.Seed + 200)
	scratch.Fit(xTgtTr, yTgtTr, fitCfg(rng, maxEpochs(epochs/2, 2)))
	scratchACC := accOn(scratch)

	return &TransferResult{
		TargetRecords: targetRecords,
		ScratchACC:    scratchACC,
		TransferACC:   transferACC,
		SourceACC:     srcACC,
	}, nil
}

func maxEpochs(a, floor int) int {
	if a < floor {
		return floor
	}
	return a
}

// FormatTransfer renders the comparison.
func FormatTransfer(r *TransferResult) string {
	return fmt.Sprintf(
		"EXT: TRANSFER LEARNING UNDER DATA DEFICIENCY (paper §V-G, ref [16])\n"+
			"target domain: attack variants; labeled target records: %d\n"+
			"%-44s %8s\n%-44s %8.2f\n%-44s %8.2f\n%-44s %8.2f\n",
		r.TargetRecords,
		"Strategy", "ACC%",
		"source model applied directly (no adaptation)", r.SourceACC,
		"trained from scratch on scarce target data", r.ScratchACC,
		"pretrained on source + fine-tuned on target", r.TransferACC)
}
