// Serving client: the full train → ship → serve → score → canary loop in
// one process. A small detector is trained and packed into a
// self-contained model artifact and served from the registry's live slot;
// a second generation is then staged into the shadow slot, where live
// traffic is mirrored onto it and per-slot agreement counters accumulate —
// the evidence a promotion decision reads. The shadow is promoted to live
// with the prior generation retained, and rolled back to show the exact
// prior version restored — the deployment story pelican-train and
// pelican-serve provide as separate binaries. main_test.go pins every
// line it prints but the listen address.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
)

const trainRecords = 1200

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	gen, err := synth.New(synth.NSLKDDConfig())
	if err != nil {
		return err
	}

	// Train two detector generations: the artifact we serve first and the
	// candidate we stage, mirror, and promote on the running server.
	fmt.Fprintln(w, "training two mlp generations...")
	gen1, err := trainArtifact(gen, 1)
	if err != nil {
		return err
	}
	gen2, err := trainArtifact(gen, 2)
	if err != nil {
		return err
	}

	srv, err := serve.New(gen1, serve.Config{Replicas: 2, MaxBatch: 16})
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
	fmt.Fprintf(w, "serving %s version %s at %s (live slot)\n", gen1.ModelName, gen1.Version(), base)

	// Score a few live flows over HTTP.
	flows := gen.Generate(8, 99)
	recs := make([]*data.Record, len(flows.Records))
	for i := range flows.Records {
		recs[i] = &flows.Records[i]
	}
	verdicts, liveVersion, err := client.Score(recs)
	if err != nil {
		return err
	}
	for i, v := range verdicts {
		truth := gen.Schema().ClassNames[flows.Records[i].Label]
		fmt.Fprintf(w, "  flow %d: class=%-2d attack=%-5v score=%.2f (truth: %s)\n",
			i, v.Class, v.IsAttack, v.Score, truth)
	}

	// Stage the candidate into the shadow slot. From here on, every live
	// request is also mirrored onto it, best-effort and off the hot path.
	dir, err := os.MkdirTemp("", "pelican-serving-client")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "gen2.plcn")
	if err := serve.SaveArtifactFile(path, gen2); err != nil {
		return err
	}
	info, err := client.LoadTag(path, "shadow")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "staged %s into the shadow slot (live stays %s)\n", info.Version, liveVersion)

	// Drive evaluation traffic at live; the mirrors accumulate agreement
	// counters on the shadow slot.
	eval := gen.Generate(256, 7)
	evalRecs := make([]*data.Record, len(eval.Records))
	for i := range eval.Records {
		evalRecs[i] = &eval.Records[i]
	}
	for lo := 0; lo < len(evalRecs); lo += 32 {
		hi := min(lo+32, len(evalRecs))
		if _, _, err := client.Score(evalRecs[lo:hi]); err != nil {
			return err
		}
	}
	// Mirrors are asynchronous: wait until every evaluation record's
	// mirror has landed or been dropped.
	shadowStats, err := waitForMirrors(client, int64(len(evalRecs)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shadow evaluation: %d mirrored, %d agree, %d disagree (%d dropped)\n",
		shadowStats.Mirrored, shadowStats.Agreements, shadowStats.Disagreements, shadowStats.MirrorDropped)

	// Promote: the shadow becomes live atomically; the displaced live
	// generation is retained for rollback.
	info, err = client.Promote()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "promoted: now serving version %s (was %s, retained for rollback)\n",
		info.Version, info.PreviousVersion)
	if _, v2, err := client.Score(recs[:2]); err != nil {
		return err
	} else if v2 != gen2.Version() {
		return fmt.Errorf("post-promote scoring answered %s, want %s", v2, gen2.Version())
	}

	// Rollback: the exact prior version returns.
	info, err = client.Rollback()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rolled back: serving version %s again\n", info.Version)
	if info.Version != gen1.Version() {
		return fmt.Errorf("rollback restored %s, want %s", info.Version, gen1.Version())
	}

	// Graceful shutdown: drain, stop the listener, drain the batchers.
	srv.BeginDrain()
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		return err
	}
	srv.Close()
	fmt.Fprintln(w, "clean shutdown")
	return nil
}

// waitForMirrors polls /v2/models until want mirrors have been settled on
// the shadow slot, scored or dropped (they are asynchronous and
// best-effort).
func waitForMirrors(client *serve.Client, want int64) (serve.SlotStatsJSON, error) {
	deadline := time.Now().Add(5 * time.Second)
	var last serve.SlotStatsJSON
	for {
		ms, err := client.Models()
		if err != nil {
			return last, err
		}
		for _, sl := range ms.Slots {
			if sl.Tag == "shadow" {
				last = sl.Stats
			}
		}
		if last.Mirrored+last.MirrorDropped >= want || time.Now().After(deadline) {
			return last, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// trainArtifact trains a small MLP detector and packs it into an artifact.
func trainArtifact(gen *synth.Generator, seed int64) (*serve.Artifact, error) {
	ds := gen.Generate(trainRecords, seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(seed))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(seed+1)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	x3 := x.Reshape(x.Dim(0), 1, x.Dim(1))
	net.Fit(x3, y, nn.FitConfig{Epochs: 4, BatchSize: 128, Shuffle: true, RNG: rng})
	return serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
}
