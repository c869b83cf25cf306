// Adaptive loop: the full self-healing deployment in one process — the
// closing of the loop the paper's §VI motivates. A detector is trained and
// served over HTTP; a live pipeline scores simulated traffic against the
// server while the adaptation loop (internal/adapt) watches the score,
// alert-rate, and feature distributions through the pipeline's feedback
// tap. Mid-stream, every attack class mutates into a new variant: detection
// rate collapses, the drift monitor trips, the current model is warm-start
// retrained on a sliding buffer of recent flows, and the new generation is
// staged into the server's shadow slot and promoted live (/v2/load,
// /v2/promote) — after which detection recovers, with the server answering
// throughout.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/adapt"
	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
)

const (
	trainRecords = 2000
	phaseFlows   = 3000
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cfg := synth.NSLKDDConfig()
	gen, err := synth.New(cfg)
	if err != nil {
		return err
	}

	// Train the first generation and serve it.
	fmt.Println("training the initial detector...")
	art, err := trainArtifact(gen)
	if err != nil {
		return err
	}
	srv, err := serve.New(art, serve.Config{Replicas: 2, MaxBatch: 16})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := serve.NewClient(base)
	fmt.Printf("serving %s version %s at %s\n\n", art.ModelName, art.Version(), base)

	// The adaptation loop publishes retrained generations back into the
	// server over the same admin endpoint an operator would use.
	dir, err := os.MkdirTemp("", "adaptive-loop")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	loop, err := adapt.NewLoop(art, adapt.Config{
		Monitor:     adapt.MonitorConfig{RefWindow: 1024, Window: 512},
		BufferCap:   2048,
		ArtifactDir: dir,
		Publisher:   adapt.HTTPPublisher{Client: client},
		OnEvent:     func(e adapt.Event) { fmt.Println("  " + e.String()) },
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run(ctx)
	}()

	// The pipeline scores flows against the server (a RemoteDetector), so
	// hot-reloads are immediately visible to it, and feeds every verdict
	// to the loop through the tap.
	det := &serve.RemoteDetector{Client: client}
	src, err := flow.NewSource(gen, flow.SourceConfig{
		AttackRate: 0.15, EpisodeEvery: 200, EpisodeLen: 40, EpisodeAttackRate: 0.8, Seed: 9,
	})
	if err != nil {
		return err
	}
	phase := func(name string) nids.StatsSnapshot {
		p := nids.New(det, nids.Config{Workers: 2, MicroBatch: 8, Tap: loop.Observe})
		flows := make(chan flow.Flow, 32)
		go func() {
			defer close(flows)
			for i := 0; i < phaseFlows; i++ {
				flows <- src.Next()
			}
		}()
		p.Run(context.Background(), flows, nil)
		st := p.Stats()
		fmt.Printf("%-28s DR=%5.1f%%  FAR=%4.1f%%  (version %s)\n",
			name, st.DR()*100, st.FAR()*100, det.ModelVersion())
		return st
	}

	baseline := phase("1. stationary traffic:")

	// New attack variants: every attack class re-draws its generative
	// profile while normal traffic stays put — drift that lowers DR
	// without inflating FAR, the §VI scenario a deployed NIDS faces.
	k := gen.Schema().NumClasses()
	attacks := make([]int, 0, k-1)
	for c := 1; c < k; c++ {
		attacks = append(attacks, c)
	}
	variant, err := synth.NewVariant(cfg, cfg.ProfileSeed+202, attacks)
	if err != nil {
		return err
	}
	if err := src.SetGenerator(variant); err != nil {
		return err
	}
	fmt.Println("\n-- attack variants injected --")
	drifted := phase("2. drifted traffic:")

	// Give the loop a moment in case the trip landed at the phase edge.
	for i := 0; i < 100 && loop.Retrains() == 0; i++ {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Println()
	recovered := phase("3. after hot-reload:")

	fmt.Printf("\nDR %.1f%% -> %.1f%% under drift, %.1f%% after adaptation; retrains=%d, generations: %s -> %s\n",
		baseline.DR()*100, drifted.DR()*100, recovered.DR()*100,
		loop.Retrains(), art.Version(), loop.Version())

	cancel()
	<-loopDone
	srv.BeginDrain()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		return err
	}
	srv.Close()
	fmt.Println("clean shutdown")
	return nil
}

// trainArtifact trains a small MLP detector and packs it into an artifact.
func trainArtifact(gen *synth.Generator) (*serve.Artifact, error) {
	ds := gen.Generate(trainRecords, 1)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{
		Epochs: 6, BatchSize: 128, Shuffle: true, RNG: rng,
	})
	return serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
}
