// Command pelican-adapt is the adaptation sidecar that closes the loop
// around a running pelican-serve: it scores labeled evaluation traffic
// against the server (so it watches exactly the model generation
// production flows are scored by), monitors the score/alert/feature
// distributions for drift, and on a trip warm-start retrains the current
// model on the older part of a sliding buffer of recent flows, saves a new
// content-addressed artifact, and stages it into the server's shadow slot
// via /v2/load. Promotion is gated: the candidate must score a held-out
// detection rate no worse than the deployed model's (on the buffer's most
// recent flows, which retraining never sees) or it is rejected — it stays
// parked in shadow for inspection and the live model is untouched, with
// /v2/rollback one call away even after a promotion. -gate-off restores
// the old unconditional publish.
//
// The traffic is simulated (the repository's class-conditional generators
// stand in for a span port); -shift-at injects a distribution shift —
// every attack class mutates into a new variant — mid-stream to
// demonstrate and test the loop end to end:
//
//	pelican-adapt -model model.plcn -target http://127.0.0.1:8080 \
//	    -artifact-dir /tmp/artifacts -flows 12000 -shift-at 4000 -require-retrain
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/flow"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pelican-adapt:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pelican-adapt", flag.ContinueOnError)
	var (
		model       = fs.String("model", "", "deployed model artifact (the warm-start base; must match what -target serves)")
		target      = fs.String("target", "http://127.0.0.1:8080", "scoring server base URL")
		artifactDir = fs.String("artifact-dir", "", "where retrained artifacts are written (default: a temp dir)")
		dataset     = fs.String("dataset", "nsl-kdd", "traffic shape: unsw-nb15 or nsl-kdd (must match the served model)")
		flows       = fs.Int("flows", 12000, "evaluation flows to stream")
		shiftAt     = fs.Int("shift-at", 0, "inject an attack-variant distribution shift after this many flows (0 = never)")
		variantSeed = fs.Int64("variant-seed", 202, "profile-seed delta for the injected attack variants")
		seed        = fs.Int64("seed", 1, "traffic seed")
		attackRate  = fs.Float64("attack-rate", 0.15, "background attack fraction of the simulated stream")
		workers     = fs.Int("workers", 2, "pipeline scoring workers")
		refWindow   = fs.Int("ref-window", 1024, "drift monitor reference window (flows)")
		window      = fs.Int("window", 512, "drift monitor sliding window (flows)")
		threshold   = fs.Float64("threshold", adapt.DefaultThreshold, "drift trip threshold (|z|)")
		buffer      = fs.Int("buffer", 2048, "sliding retraining buffer (flows)")
		minRetrain  = fs.Int("min-retrain", 256, "fewest buffered flows worth retraining on")
		epochs      = fs.Int("epochs", 3, "warm-start retraining epochs per trip")
		lr          = fs.Float64("lr", 0.003, "warm-start learning rate")
		holdout     = fs.Float64("holdout", 0.2, "fraction of the buffer held out to gate promotion (candidate DR must be no worse than live)")
		gateOff     = fs.Bool("gate-off", false, "publish every retrain unconditionally (disable the held-out promotion gate)")
		reportEvery = fs.Int("report-every", 2000, "print realized stats every N flows (0 = off)")
		healthEvery = fs.Duration("healthz-every", 0, "poll -target/healthz at this interval and fail on any non-200 (0 = off)")
		stateDir    = fs.String("state-dir", "", "directory for adaptation checkpoints (drift windows + flow buffer); a restarted sidecar resumes its drift window instead of re-warming")
		ckptEvery   = fs.Duration("checkpoint-every", 5*time.Second, "periodic checkpoint interval when -state-dir is set (0 = only at exit)")
		mustRetrain = fs.Bool("require-retrain", false, "exit non-zero unless at least one retrain was published")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6061; empty disables)")
		logLevel    = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("-model is required (the artifact the server is serving)")
	}
	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	if *pprofAddr != "" {
		bound, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer stop()
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", bound)
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

	art, err := serve.LoadArtifactFile(*model)
	if err != nil {
		return err
	}
	if got, want := art.Features(), gen.Schema().EncodedWidth(); got != want {
		return fmt.Errorf("artifact encodes %d features, dataset %s encodes %d — use the matching -dataset", got, *dataset, want)
	}
	client := serve.NewClient(*target)
	info, err := client.ModelTag("live")
	if err != nil {
		return fmt.Errorf("query %s/v2/models/live: %w", *target, err)
	}
	if info.Version != art.Version() {
		fmt.Fprintf(out, "warning: server serves version %s, -model is %s; retraining warm-starts from -model\n",
			info.Version, art.Version())
	}

	if *artifactDir == "" {
		dir, err := os.MkdirTemp("", "pelican-adapt")
		if err != nil {
			return err
		}
		*artifactDir = dir
	}

	var rejected atomic.Int64
	loop, err := adapt.NewLoop(art, adapt.Config{
		Monitor:       adapt.MonitorConfig{RefWindow: *refWindow, Window: *window, Threshold: *threshold},
		BufferCap:     *buffer,
		MinRetrain:    *minRetrain,
		RetrainEpochs: *epochs,
		LR:            *lr,
		HoldoutFrac:   *holdout,
		GateOff:       *gateOff,
		ArtifactDir:   *artifactDir,
		Publisher:     adapt.HTTPPublisher{Client: client},
		Logger:        logger.With("component", "adapt"),
		// Stamp each drift trip with the server-echoed request ID of the
		// scoring call whose verdict closed the window: the retrain's
		// structured records then join to the server's /debug/traces entry
		// for that request.
		TraceIDFn: client.LastRequestID,
		OnEvent: func(e adapt.Event) {
			if e.Rejected {
				rejected.Add(1)
			}
			fmt.Fprintln(out, e)
		},
		Seed: *seed,
	})
	if err != nil {
		return err
	}

	// Durable adaptation state: restore the dead process's drift windows
	// and flow buffer before the first observation, so the monitors are
	// watching from flow one instead of re-warming (a gap during which
	// real drift would pass unnoticed). A corrupt or cross-generation
	// checkpoint is discarded — fresh windows beat poisoned ones.
	var ckptPath string
	saveCheckpoint := func() {
		if ckptPath == "" {
			return
		}
		if err := loop.SaveCheckpoint(ckptPath); err != nil {
			fmt.Fprintf(out, "checkpoint save failed: %v\n", err)
		}
	}
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			return fmt.Errorf("-state-dir: %w", err)
		}
		ckptPath = filepath.Join(*stateDir, "adapt.ckpt")
		switch err := loop.RestoreCheckpoint(ckptPath); {
		case err == nil:
			sig, z := loop.Stat()
			fmt.Fprintf(out, "resumed adaptation state from %s (%d buffered flows, %d seen, drift %s z=%.1f)\n",
				ckptPath, loop.Buffer().Len(), loop.Buffer().Seen(), sig, z)
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to resume.
		default:
			fmt.Fprintf(out, "checkpoint discarded (%v); starting with fresh drift windows\n", err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run(ctx)
	}()
	if ckptPath != "" && *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					saveCheckpoint()
				}
			}
		}()
	}

	// Optional health watchdog: the whole point of hot-reload is that the
	// swap is invisible to /healthz. Every poll runs under its own
	// timeout — a bare http.Get here would let one stalled poll park the
	// watchdog goroutine forever, silently disabling the very check this
	// flag asks for — and a timed-out poll counts as a failure: a health
	// endpoint that cannot answer inside the poll interval is not healthy.
	var healthFails atomic.Int64
	if *healthEvery > 0 {
		pollTimeout := *healthEvery
		if pollTimeout < 250*time.Millisecond {
			pollTimeout = 250 * time.Millisecond
		}
		go func() {
			t := time.NewTicker(*healthEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					pollCtx, cancel := context.WithTimeout(ctx, pollTimeout)
					req, err := http.NewRequestWithContext(pollCtx, http.MethodGet, *target+"/healthz", nil)
					var resp *http.Response
					if err == nil {
						resp, err = http.DefaultClient.Do(req)
					}
					if err != nil || resp.StatusCode != http.StatusOK {
						healthFails.Add(1)
					}
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					cancel()
				}
			}
		}()
	}

	det := &serve.RemoteDetector{Client: client}
	pipe := nids.New(det, nids.Config{Workers: *workers, MicroBatch: 8, Tap: loop.Observe})

	src, err := flow.NewSource(gen, flow.SourceConfig{
		AttackRate:        *attackRate,
		EpisodeEvery:      200,
		EpisodeLen:        40,
		EpisodeAttackRate: 0.8,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}

	// Build the injected shift up front so a bad -variant-seed fails fast
	// instead of silently leaving the stream stationary.
	var variant *synth.Generator
	if *shiftAt > 0 {
		k := gen.Schema().NumClasses()
		attacks := make([]int, 0, k-1)
		for c := 1; c < k; c++ {
			attacks = append(attacks, c)
		}
		variant, err = synth.NewVariant(cfg, cfg.ProfileSeed+*variantSeed, attacks)
		if err != nil {
			return fmt.Errorf("build attack variants: %w", err)
		}
	}

	fmt.Fprintf(out, "adapting %s (version %s) at %s: %d flows, shift at %d\n",
		art.ModelName, art.Version(), *target, *flows, *shiftAt)
	// SIGTERM/SIGINT stop the stream gracefully: the pipeline drains, the
	// loop exits, and a final checkpoint lands — so an orchestrated restart
	// (rolling update, node drain) resumes its drift window.
	sigCtx, sigStop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer sigStop()
	flowCh := make(chan flow.Flow, 32)
	var prev nids.StatsSnapshot
	go func() {
		defer close(flowCh)
		for i := 0; i < *flows; i++ {
			if variant != nil && i == *shiftAt {
				if err := src.SetGenerator(variant); err != nil {
					fmt.Fprintf(out, "flow %d: shift injection failed: %v\n", i, err)
				} else {
					fmt.Fprintf(out, "flow %d: injected attack-variant shift (profile seed +%d)\n", i, *variantSeed)
				}
			}
			if *reportEvery > 0 && i > 0 && i%*reportEvery == 0 {
				st := pipe.Stats()
				sig, z := loop.Stat()
				fmt.Fprintf(out, "flow %d: window DR=%.1f%% FAR=%.1f%% | drift %s z=%.1f | retrains=%d\n",
					i, windowRate(st.TruePos-prev.TruePos, st.Missed-prev.Missed)*100,
					windowRate(st.FalseAlarms-prev.FalseAlarms, st.TrueNeg-prev.TrueNeg)*100,
					sig, z, loop.Retrains())
				prev = st
			}
			select {
			case flowCh <- src.Next():
			case <-sigCtx.Done():
				return
			}
		}
	}()
	runErr := pipe.Run(sigCtx, flowCh, nil)
	interrupted := sigCtx.Err() != nil
	cancel()
	<-loopDone
	saveCheckpoint()
	if interrupted {
		fmt.Fprintf(out, "interrupted: adaptation state checkpointed (%d flows buffered)\n", loop.Buffer().Len())
		return nil
	}
	if runErr != nil {
		return runErr
	}

	st := pipe.Stats()
	final, err := client.ModelTag("live")
	if err != nil {
		return fmt.Errorf("query final /v2/models/live: %w", err)
	}
	fmt.Fprintf(out, "done: %s\n", st)
	fmt.Fprintf(out, "retrains=%d gate-rejections=%d served-version=%s scoring-errors=%d\n",
		loop.Retrains(), rejected.Load(), final.Version, det.Errors())
	if det.Errors() > 0 {
		return fmt.Errorf("%d scoring requests failed", det.Errors())
	}
	if fails := healthFails.Load(); fails > 0 {
		return fmt.Errorf("/healthz failed %d times during the run", fails)
	}
	if *mustRetrain && loop.Retrains() == 0 {
		sig, z := loop.Stat()
		return fmt.Errorf("no retrain was published (-require-retrain; strongest drift signal %s z=%.1f)", sig, z)
	}
	return nil
}

// windowRate is a safe ratio for per-report-window counter deltas.
func windowRate(hit, miss int64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}
