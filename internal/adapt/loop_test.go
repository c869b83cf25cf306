package adapt

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
)

// tinyCfg is a small NSL-KDD-shaped dataset so training stays fast.
func tinyCfg() synth.Config {
	cfg := synth.NSLKDDConfig()
	cfg.Name = "nsl-tiny"
	cfg.NumericName = cfg.NumericName[:10]
	cfg.Cats = []synth.CatSpec{{Name: "proto", Card: 3}, {Name: "service", Card: 6}}
	cfg.Classes = []synth.ClassSpec{
		{Name: "normal", Weight: 0.6},
		{Name: "dos", Weight: 0.25},
		{Name: "probe", Weight: 0.15},
	}
	cfg.LatentDim = 6
	cfg.QuadTerms = 4
	return cfg
}

// trainTinyArtifact fits an MLP on the generator and packs the artifact.
func trainTinyArtifact(t *testing.T, gen *synth.Generator, records, epochs int, seed int64) *serve.Artifact {
	t.Helper()
	ds := gen.Generate(records, seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	classes := gen.Schema().NumClasses()
	rng := rand.New(rand.NewSource(seed))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(seed+1)), features, classes)
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{
		Epochs: epochs, BatchSize: 128, Shuffle: true, RNG: rng,
	})
	a, err := serve.NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runPhase streams n flows from src through a fresh pipeline wired to the
// loop's tap and returns the phase's realized stats.
// liveVersion is the version srv's live slot serves.
func liveVersion(srv *serve.Server) string {
	info, _ := srv.InfoTag("live")
	return info.Version
}

func runPhase(t *testing.T, src *flow.Source, det nids.Detector, l *Loop, n int) nids.StatsSnapshot {
	t.Helper()
	p := nids.New(det, nids.Config{Workers: 2, MicroBatch: 8, Tap: l.Observe})
	flows := make(chan flow.Flow, 32)
	go func() {
		defer close(flows)
		for i := 0; i < n; i++ {
			flows <- src.Next()
		}
	}()
	if err := p.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	return p.Stats()
}

// TestClosedLoopDriftRetrainHotReload is the end-to-end acceptance test:
// an injected distribution shift degrades the served model's detection
// rate, the drift monitor trips, the loop warm-start retrains on the
// sliding buffer, publishes a new content-addressed artifact (staged into
// shadow, then promoted), and detection quality on the shifted traffic recovers — all
// while the scoring server keeps answering.
func TestClosedLoopDriftRetrainHotReload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and streams thousands of flows")
	}
	cfg := tinyCfg()
	baseGen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The drifted domain: attack classes mutate into new variants while
	// normal traffic keeps its distribution — the shift that lowers DR
	// without torching FAR.
	driftGen, err := synth.NewVariant(cfg, cfg.ProfileSeed+202, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	art := trainTinyArtifact(t, baseGen, 1500, 8, 21)

	srv, err := serve.New(art, serve.Config{Replicas: 2, MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	client := serve.NewClient(ts.URL)

	var events []Event
	var evMu sync.Mutex
	loop, err := NewLoop(art, Config{
		// Windows big enough to hold several campaign cycles, so bursty
		// stationary traffic does not false-trip (threshold at default).
		Monitor:       MonitorConfig{RefWindow: 1024, Window: 512},
		BufferCap:     2048,
		MinRetrain:    256,
		RetrainEpochs: 3,
		ArtifactDir:   t.TempDir(),
		Publisher:     HTTPPublisher{Client: client},
		OnEvent: func(e Event) {
			evMu.Lock()
			events = append(events, e)
			evMu.Unlock()
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run(ctx)
	}()

	det := &serve.RemoteDetector{Client: client}
	srcCfg := flow.SourceConfig{
		AttackRate:        0.15,
		EpisodeEvery:      200,
		EpisodeLen:        40,
		EpisodeAttackRate: 0.8,
		Seed:              9,
	}
	src, err := flow.NewSource(baseGen, srcCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase A: stationary traffic on the training distribution.
	baseline := runPhase(t, src, det, loop, 2800)
	if baseline.DR() < 0.5 {
		t.Fatalf("baseline DR %.2f too weak for the drift comparison to mean anything", baseline.DR())
	}
	if sig, z := loop.Stat(); loop.Retrains() != 0 {
		t.Fatalf("loop retrained on stationary traffic (stat %s z=%.1f)", sig, z)
	}

	// Inject the distribution shift and stream until the loop publishes.
	if err := src.SetGenerator(driftGen); err != nil {
		t.Fatal(err)
	}
	var drifted nids.StatsSnapshot
	deadline := time.Now().Add(2 * time.Minute)
	for loop.Retrains() == 0 {
		if time.Now().After(deadline) {
			sig, z := loop.Stat()
			t.Fatalf("loop never retrained under drift (max stat %s z=%.1f, events %v)", sig, z, events)
		}
		st := runPhase(t, src, det, loop, 512)
		drifted.TruePos += st.TruePos
		drifted.Missed += st.Missed
		drifted.FalseAlarms += st.FalseAlarms
		drifted.TrueNeg += st.TrueNeg
		drifted.Processed += st.Processed
	}
	t.Logf("baseline DR=%.3f FAR=%.3f; drifted DR=%.3f FAR=%.3f over %d flows",
		baseline.DR(), baseline.FAR(), drifted.DR(), drifted.FAR(), drifted.Processed)
	if drifted.DR() >= baseline.DR()-0.05 {
		t.Fatalf("injected drift did not measurably drop DR: %.3f -> %.3f", baseline.DR(), drifted.DR())
	}

	// The published generation must actually be served now.
	info, err := client.ModelTag("live")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version == art.Version() {
		t.Fatalf("server still serves the original version %s after publish", info.Version)
	}
	if info.Version != loop.Version() {
		t.Fatalf("served version %s != loop's current generation %s", info.Version, loop.Version())
	}
	evMu.Lock()
	published := 0
	for _, e := range events {
		if e.Err != nil {
			t.Fatalf("adaptation event failed: %v", e)
		}
		if !e.Skipped {
			published++
			if e.Version == "" || e.TrainFlows < 256 {
				t.Fatalf("published event incomplete: %+v", e)
			}
		}
	}
	evMu.Unlock()
	if published == 0 {
		t.Fatal("no published adaptation event recorded")
	}

	// Phase C: the adaptation loop must recover detection quality on the
	// drifted distribution. A partial first retrain is legitimate — the
	// buffer at the first trip still holds pre-drift flows, and the
	// monitors re-trip on the residual mismatch and retrain again on a
	// fully-drifted buffer — so stream re-baselining traffic until the
	// measured window converges (or a deadline says it never does).
	recovered := runPhase(t, src, det, loop, 1500)
	deadline = time.Now().Add(2 * time.Minute)
	for recovered.DR() < baseline.DR()-0.15 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered DR %.3f never came within 0.15 of baseline %.3f (%d retrains)",
				recovered.DR(), baseline.DR(), loop.Retrains())
		}
		recovered = runPhase(t, src, det, loop, 512)
	}
	t.Logf("recovered DR=%.3f FAR=%.3f after %d retrains (serving %s)",
		recovered.DR(), recovered.FAR(), loop.Retrains(), loop.Version())
	if recovered.DR() < drifted.DR() {
		t.Fatalf("retraining did not improve DR on drifted traffic: %.3f -> %.3f", drifted.DR(), recovered.DR())
	}
	if det.Errors() != 0 {
		t.Fatalf("remote detector saw %d request errors during the loop", det.Errors())
	}

	cancel()
	<-loopDone
}

// observeFlows streams n generated flows into the loop's tap with their
// ground-truth labels and oracle verdicts, filling the retraining buffer
// without a serving round-trip.
func observeFlows(t *testing.T, loop *Loop, gen *synth.Generator, n int, seed int64) {
	t.Helper()
	ds := gen.Generate(n, seed)
	for i := range ds.Records {
		f := flow.Flow{Record: ds.Records[i], TrueClass: ds.Records[i].Label}
		v := nids.Verdict{Class: f.TrueClass, IsAttack: f.TrueClass != 0, Score: 1}
		loop.Observe(&f, v)
	}
}

// TestGatedPromotionRejectsWorseRetrain pins the acceptance criterion: a
// retrain whose held-out detection quality is worse than the deployed
// model's is auto-rejected — it lands in the shadow slot but never becomes
// live — while a sane retrain over the same buffer passes the gate,
// promotes through shadow, and leaves the displaced generation available
// for rollback.
func TestGatedPromotionRejectsWorseRetrain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 1200, 8, 41)
	srv, err := serve.New(art, serve.Config{Replicas: 1, MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// A deliberately destructive retrain: a warm-start learning rate of 3
	// torches the deployed weights, so the candidate must score worse than
	// live on the holdout (or alert on everything and trip the FAR guard).
	bad, err := NewLoop(art, Config{
		MinRetrain:    256,
		RetrainEpochs: 4,
		LR:            3,
		ArtifactDir:   t.TempDir(),
		Publisher:     ServerPublisher{Srv: srv},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	observeFlows(t, bad, gen, 900, 51)
	ev := bad.adapt(Trigger{Signal: "normal-score", Z: 9})
	if ev.Err != nil {
		t.Fatalf("adapt failed outright: %v", ev)
	}
	if !ev.Rejected {
		t.Fatalf("destructive retrain was promoted: %+v", ev)
	}
	if ev.HoldoutFlows < minHoldout || ev.Version == "" {
		t.Fatalf("rejection event incomplete: %+v", ev)
	}
	if got := liveVersion(srv); got != art.Version() {
		t.Fatalf("rejected retrain became live: serving %s, want %s", got, art.Version())
	}
	if bad.Version() != art.Version() || bad.Retrains() != 0 {
		t.Fatalf("rejection advanced the loop generation: %s / %d retrains", bad.Version(), bad.Retrains())
	}
	// The rejected candidate is parked in shadow for inspection.
	shadowInfo, err := srv.InfoTag("shadow")
	if err != nil || shadowInfo.Version != ev.Version {
		t.Fatalf("rejected candidate not staged in shadow: %+v, %v", shadowInfo, err)
	}
	if s := ev.String(); !strings.Contains(s, "REJECTED") {
		t.Fatalf("rejection event renders as %q", s)
	}

	// After a rejection the warm-start base must be the deployed weights,
	// not the torched ones: a sane retrain from the same loop passes.
	bad.cfg.LR = 0.003
	if err := bad.resetNet(); err != nil {
		t.Fatal(err)
	}
	observeFlows(t, bad, gen, 900, 53)
	ev = bad.adapt(Trigger{Signal: "normal-score", Z: 9})
	if ev.Err != nil || ev.Rejected {
		t.Fatalf("sane retrain did not promote: %+v", ev)
	}
	if ev.HoldoutFlows < minHoldout {
		t.Fatalf("gate did not run on the sane retrain: %+v", ev)
	}
	if got := liveVersion(srv); got != ev.Version || bad.Retrains() != 1 {
		t.Fatalf("promotion did not land: serving %s, event %s, retrains %d", got, ev.Version, bad.Retrains())
	}
	// The promotion went through the registry: the displaced generation is
	// one rollback away.
	if err := srv.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := liveVersion(srv); got != art.Version() {
		t.Fatalf("rollback after gated promotion restored %s, want %s", got, art.Version())
	}
}

// TestGateOffRestoresUnconditionalPublish pins the escape hatch: with
// GateOff even a destructive retrain ships — no holdout, no verdict — so
// deployments that cannot afford a holdout keep working. It ships the one
// way there is: staged into shadow, then promoted, with the displaced
// generation one rollback away.
func TestGateOffRestoresUnconditionalPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 600, 3, 43)
	srv, err := serve.New(art, serve.Config{Replicas: 1, MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	loop, err := NewLoop(art, Config{
		MinRetrain:  256,
		LR:          3,
		GateOff:     true,
		ArtifactDir: t.TempDir(),
		Publisher:   ServerPublisher{Srv: srv},
	})
	if err != nil {
		t.Fatal(err)
	}
	observeFlows(t, loop, gen, 600, 61)
	ev := loop.adapt(Trigger{Signal: "normal-score", Z: 9})
	if ev.Err != nil || ev.Rejected || ev.HoldoutFlows != 0 {
		t.Fatalf("GateOff adapt = %+v, want ungated publish", ev)
	}
	if got := liveVersion(srv); got != ev.Version {
		t.Fatalf("ungated publish did not land: serving %s, want %s", got, ev.Version)
	}
	if ev.PublishTries != 2 {
		t.Fatalf("PublishTries = %d, want 2 (stage + promote)", ev.PublishTries)
	}
	if info, err := srv.InfoTag("shadow"); err == nil {
		t.Fatalf("shadow still holds %s after the promote", info.Version)
	}
	if err := srv.Rollback(); err != nil || liveVersion(srv) != art.Version() {
		t.Fatalf("rollback after an ungated publish serves %s (%v), want %s", liveVersion(srv), err, art.Version())
	}
}

// TestLoopSkipsWithThinBuffer pins the MinRetrain guard: a trip with too
// few buffered flows is reported as skipped, keeps the current generation,
// and publishes nothing.
func TestLoopSkipsWithThinBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 31)
	var events []Event
	loop, err := NewLoop(art, Config{
		MinRetrain:  1 << 30, // never enough
		ArtifactDir: t.TempDir(),
		OnEvent:     func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := loop.adapt(Trigger{Signal: "score", Z: 42})
	if !ev.Skipped {
		t.Fatalf("thin-buffer adapt was not skipped: %+v", ev)
	}
	if loop.Retrains() != 0 || loop.Version() != art.Version() {
		t.Fatal("skipped adapt changed the generation")
	}
	if ev.String() == "" {
		t.Fatal("empty event string")
	}
}

// TestLoopIgnoresFailedVerdicts pins that scorer outages feed neither the
// retraining buffer nor the drift monitors.
func TestLoopIgnoresFailedVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 37)
	loop, err := NewLoop(art, Config{ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	f := flow.Flow{Record: gen.SampleClass(rand.New(rand.NewSource(1)), 0), TrueClass: 0}
	for i := 0; i < 100; i++ {
		loop.Observe(&f, nids.Verdict{Failed: true})
	}
	if n := loop.Buffer().Len(); n != 0 {
		t.Fatalf("failed verdicts reached the retraining buffer: %d", n)
	}
	if sig, z := loop.Stat(); z != 0 {
		t.Fatalf("failed verdicts moved the %s monitor to z=%.2f", sig, z)
	}
}
