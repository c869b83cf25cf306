// Command pelican-nids runs the live intrusion-detection pipeline of the
// paper's Fig. 1 on simulated traffic: train (or load) a detector, stream
// flows through it, and report alerts plus realized DR/FAR.
//
// Usage:
//
//	pelican-nids -detector lunet -flows 3000
//	pelican-nids -detector signature -flows 2000
//	pelican-nids -detector anomaly -flows 2000 -show-alerts 5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/signature"
	"repro/internal/synth"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pelican-nids:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pelican-nids", flag.ContinueOnError)
	var (
		detName    = fs.String("detector", "lunet", "detector: any model name, or \"signature\" / \"anomaly\"")
		dataset    = fs.String("dataset", "nsl-kdd", "dataset shape: unsw-nb15 or nsl-kdd")
		trainN     = fs.Int("train", 3000, "records used to train/profile the detector")
		flows      = fs.Int("flows", 2000, "flows to stream")
		epochs     = fs.Int("epochs", 6, "training epochs for model detectors")
		workers    = fs.Int("workers", 4, "detection worker goroutines")
		seed       = fs.Int64("seed", 1, "random seed")
		showAlerts = fs.Int("show-alerts", 3, "print the first N alerts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg synth.Config
	switch *dataset {
	case "unsw-nb15":
		cfg = synth.UNSWNB15Config()
	case "nsl-kdd":
		cfg = synth.NSLKDDConfig()
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	gen, err := synth.New(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "building %q detector from %d training records...\n", *detName, *trainN)
	det, err := buildDetector(*detName, gen, *trainN, *epochs, *seed, out)
	if err != nil {
		return err
	}

	src, err := flow.NewSource(gen, flow.DefaultSourceConfig())
	if err != nil {
		return err
	}
	pipe := nids.New(det, nids.Config{Workers: *workers})

	fmt.Fprintf(out, "streaming %d flows through %s (%d workers)...\n", *flows, det.Name(), *workers)
	flowCh := make(chan flow.Flow, 1)
	ctx := context.Background()
	go src.Run(ctx, flowCh, *flows)

	// What the security team reviews is incidents, not raw alerts (the
	// paper's Fig. 1): bursts from one source and class fold into one case.
	triage := nids.NewTriage(0)
	shown := 0
	start := time.Now()
	err = pipe.Run(ctx, flowCh, func(a nids.Alert) {
		triage.Observe(a)
		if shown < *showAlerts {
			shown++
			fmt.Fprintf(out, "ALERT %s -> %s:%d class=%d score=%.3f rule=%d\n",
				a.Flow.SrcIP, a.Flow.DstIP, a.Flow.DstPort, a.Verdict.Class, a.Verdict.Score, a.Verdict.RuleID)
		}
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := pipe.Stats()
	fmt.Fprintf(out, "%s\n", st)
	incidents := triage.Flush()
	fmt.Fprintf(out, "incidents: %d (%.1f alerts folded into each)\n", len(incidents), nids.CompressionRatio(incidents))
	fmt.Fprintf(out, "throughput: %.0f flows/s\n", float64(st.Processed)/elapsed.Seconds())
	return nil
}

// buildDetector constructs and trains/profiles the requested detector.
func buildDetector(name string, gen *synth.Generator, trainN, epochs int, seed int64, out io.Writer) (nids.Detector, error) {
	train := gen.Generate(trainN, seed)
	switch name {
	case "signature":
		rules, err := signature.MineRules(train, 3)
		if err != nil {
			return nil, err
		}
		eng, err := signature.NewEngine(train.Schema, rules)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "mined %d signatures\n", eng.RuleCount())
		return &nids.SignatureDetector{Engine: eng}, nil

	case "anomaly":
		x, y, pipe := data.Preprocess(train)
		var normalIdx []int
		for i, yi := range y {
			if yi == 0 {
				normalIdx = append(normalIdx, i)
			}
		}
		normal := tensor.New(len(normalIdx), x.Dim(1))
		for i, j := range normalIdx {
			copy(normal.Row(i), x.Row(j))
		}
		th, err := anomaly.Calibrate(anomaly.NewGaussian(), normal, 0.99)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "profiled %d normal flows (threshold %.3f)\n", normal.Dim(0), th.Threshold)
		return &nids.AnomalyDetector{Profile: th, Pipe: pipe}, nil

	default:
		spec, err := models.Lookup(name)
		if err != nil {
			return nil, err
		}
		x, y, pipe := data.Preprocess(train)
		features := gen.Schema().EncodedWidth()
		classes := gen.Schema().NumClasses()
		rng := rand.New(rand.NewSource(seed))
		stack := spec.Build(rng, rand.New(rand.NewSource(seed+1)), models.PaperBlockConfig(features), features, classes)
		opt := nn.NewRMSprop(0.01)
		opt.MaxNorm = 5
		net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
		x3 := x.Reshape(x.Dim(0), 1, x.Dim(1))
		net.Fit(x3, y, nn.FitConfig{Epochs: epochs, BatchSize: 256, Shuffle: true, RNG: rng})
		plan, err := infer.Compile(net)
		if err != nil {
			return nil, err
		}
		return infer.NewDetector(name, pipe, plan), nil
	}
}
