package main

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// tieMargin is the float64 top-two logit gap below which a record's
// class is a coin toss between f32 and f64 arithmetic: such records are
// left out of verdict_match_pct and counted (nids.near_tie_flips).
const tieMargin = 1e-3

// fixture is everything a workload's inputs derive from -seed: the
// trained model as serving-artifact bytes, the drive set every request
// is cut from, and the float64 reference verdict per record. It holds
// no network: mem_live_mb should weigh the deployment, not the bench.
type fixture struct {
	artBytes []byte
	schema   data.Schema
	pipe     *data.Pipeline
	drive    []data.Record
	labels   []int
	refClass []int  // argmax of the f64 training graph
	nearTie  []bool // f64 top-two margin < tieMargin
}

// fixtureKey identifies the model a workload needs; the three LuNet
// workloads share one.
type fixtureKey struct {
	model, dataset string
	seed           int64
	train, drive   int
}

// fixtureCache remembers the last fixture built, so consecutive
// workloads on one model train it once while a finished model's
// memory is released before the next workload is measured.
type fixtureCache struct {
	key fixtureKey
	fx  *fixture
}

func (c *fixtureCache) get(w workload, seed int64, sc scale) (*fixture, error) {
	cfg := w.Dataset()
	train := w.TrainRecords / sc.trainDiv
	key := fixtureKey{w.Model, cfg.Name, seed, train, sc.driveRecords}
	if c.fx != nil && c.key == key {
		return c.fx, nil
	}
	c.fx = nil
	fx, err := buildFixture(w.Model, cfg, seed, train, w.Epochs, sc.driveRecords)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	c.key, c.fx = key, fx
	return fx, nil
}

// buildFixture trains model on trainRecords synthetic flows (seeded),
// packs it as an artifact, draws a separate drive set, and scores the
// drive set through the f64 graph the artifact restores — the reference
// every served verdict is checked against.
func buildFixture(model string, cfg synth.Config, seed int64, trainRecords, epochs, driveRecords int) (*fixture, error) {
	gen, err := synth.New(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := models.Lookup(model)
	if err != nil {
		return nil, err
	}
	schema := gen.Schema()
	features, classes := schema.EncodedWidth(), schema.NumClasses()
	x, y, pipe := data.Preprocess(gen.Generate(trainRecords, seed))
	rng := rand.New(rand.NewSource(seed))
	block := models.PaperBlockConfig(features)
	stack := spec.Build(rng, rand.New(rand.NewSource(seed+1)), block, features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	trained := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	trained.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{Epochs: epochs, BatchSize: 128, Shuffle: true, RNG: rng})
	art, err := serve.NewArtifact(model, block, schema, pipe, trained)
	if err != nil {
		return nil, err
	}

	ds := gen.Generate(driveRecords, seed+2)
	fx := &fixture{artBytes: art.Bytes(), schema: schema, drive: ds.Records, labels: ds.Labels()}
	var net *nn.Network
	if net, fx.pipe, err = art.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01)); err != nil {
		return nil, err
	}
	fx.refClass = make([]int, len(fx.drive))
	fx.nearTie = make([]bool, len(fx.drive))
	const chunk = 256
	for lo := 0; lo < len(fx.drive); lo += chunk {
		hi := min(lo+chunk, len(fx.drive))
		logits := net.Predict(fx.encode(lo, hi))
		for i := lo; i < hi; i++ {
			row := logits.Row(i - lo)
			best, second := 0, -1
			for c := 1; c < len(row); c++ {
				switch {
				case row[c] > row[best]:
					best, second = c, best
				case second < 0 || row[c] > row[second]:
					second = c
				}
			}
			fx.refClass[i] = best
			fx.nearTie[i] = second >= 0 && row[best]-row[second] < tieMargin
		}
	}
	return fx, nil
}

// encode returns drive records [lo, hi) preprocessed into the (n, 1, F)
// tensor the f64 graph consumes.
func (fx *fixture) encode(lo, hi int) *tensor.Tensor {
	f := fx.pipe.Width()
	x := tensor.New(hi-lo, f)
	for i := lo; i < hi; i++ {
		fx.pipe.ApplyInto(&fx.drive[i], x.Row(i-lo))
	}
	return x.Reshape(hi-lo, 1, f)
}

// requests cuts the drive set into consecutive requests of n records.
// Request i covers drive records [i*n, (i+1)*n).
func (fx *fixture) requests(n int) [][]*data.Record {
	var reqs [][]*data.Record
	for lo := 0; lo+n <= len(fx.drive); lo += n {
		req := make([]*data.Record, n)
		for j := range req {
			req[j] = &fx.drive[lo+j]
		}
		reqs = append(reqs, req)
	}
	return reqs
}
