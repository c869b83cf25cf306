package nids_test

// The pipeline is tested from outside: a trained model enters it through
// infer.Detector, and infer imports nids. record_test.go and
// triage_test.go hold the tests that need the package's internals.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
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

// tinyGen is a small dataset shape so detector training stays fast.
func tinyGen(t *testing.T) *synth.Generator {
	t.Helper()
	cfg := synth.NSLKDDConfig()
	cfg.Name = "nsl-tiny"
	cfg.NumericName = cfg.NumericName[:8]
	cfg.Cats = []synth.CatSpec{{Name: "proto", Card: 3}, {Name: "flag", Card: 4}}
	cfg.Classes = []synth.ClassSpec{
		{Name: "normal", Weight: 0.6},
		{Name: "dos", Weight: 0.25},
		{Name: "probe", Weight: 0.15},
	}
	cfg.LatentDim = 6
	cfg.QuadTerms = 4
	g, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// trainTinyModel fits a small MLP on generator traffic and compiles it
// into the float32 detector every product path scores a model with.
func trainTinyModel(t *testing.T, g *synth.Generator) *infer.Detector {
	t.Helper()
	ds := g.Generate(1200, 71)
	x, y, pipe := data.Preprocess(ds)
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), g.Schema().EncodedWidth(), g.Schema().NumClasses())
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005))
	x3 := x.Reshape(x.Dim(0), 1, x.Dim(1))
	net.Fit(x3, y, nn.FitConfig{Epochs: 8, BatchSize: 128, Shuffle: true, RNG: rng})
	plan, err := infer.Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	return infer.NewDetector("mlp", pipe, plan)
}

func TestModelDetectorOnPipeline(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := nids.New(det, nids.Config{Workers: 4})
	flows := make(chan flow.Flow, 1)
	go src.Run(context.Background(), flows, 800)

	var mu sync.Mutex
	var alerts []nids.Alert
	if err := p.Run(context.Background(), flows, func(a nids.Alert) {
		mu.Lock()
		alerts = append(alerts, a)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := p.Stats()
	if st.Processed != 800 {
		t.Fatalf("processed %d flows, want 800", st.Processed)
	}
	if int64(len(alerts)) != st.Alerts {
		t.Fatalf("alert callback count %d != counter %d", len(alerts), st.Alerts)
	}
	if st.TruePos+st.FalseAlarms+st.Missed+st.TrueNeg != st.Processed {
		t.Fatalf("counters inconsistent: %+v", st)
	}
	// A trained detector must beat coin-flipping on this easy shape.
	if st.DR() < 0.5 {
		t.Fatalf("trained detector DR %.2f < 0.5", st.DR())
	}
	if st.FAR() > 0.3 {
		t.Fatalf("trained detector FAR %.2f > 0.3", st.FAR())
	}
}

// TestModelDetectorMicroBatchPipeline runs the full pipeline with an
// explicit micro-batch size and checks the counters stay exact.
func TestModelDetectorMicroBatchPipeline(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := nids.New(det, nids.Config{Workers: 2, MicroBatch: 16})
	flows := make(chan flow.Flow, 64) // deep queue so batches actually form
	go src.Run(context.Background(), flows, 500)
	if err := p.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != 500 {
		t.Fatalf("processed %d flows, want 500", st.Processed)
	}
	if st.TruePos+st.FalseAlarms+st.Missed+st.TrueNeg != st.Processed {
		t.Fatalf("counters inconsistent: %+v", st)
	}
	if st.DR() < 0.5 {
		t.Fatalf("micro-batched detector DR %.2f < 0.5", st.DR())
	}
}

func TestSignatureDetectorOnPipeline(t *testing.T) {
	g := tinyGen(t)
	train := g.Generate(2500, 72)
	rules, err := signature.MineRules(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := signature.NewEngine(train.Schema, rules)
	if err != nil {
		t.Fatal(err)
	}
	det := &nids.SignatureDetector{Engine: eng}

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := nids.New(det, nids.Config{Workers: 2})
	flows := make(chan flow.Flow, 1)
	go src.Run(context.Background(), flows, 600)
	if err := p.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != 600 {
		t.Fatalf("processed %d, want 600", st.Processed)
	}
	if st.Alerts == 0 {
		t.Fatal("signature engine produced no alerts at all")
	}
}

func TestAnomalyDetectorOnPipeline(t *testing.T) {
	g := tinyGen(t)
	train := g.Generate(1500, 73)
	x, y, pipe := data.Preprocess(train)
	// Profile on normal rows only.
	var normalRows []int
	for i, yi := range y {
		if yi == 0 {
			normalRows = append(normalRows, i)
		}
	}
	normal := tensor.New(len(normalRows), x.Dim(1))
	for i, r := range normalRows {
		copy(normal.Row(i), x.Row(r))
	}
	th, err := anomaly.Calibrate(anomaly.NewGaussian(), normal, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	det := &nids.AnomalyDetector{Profile: th, Pipe: pipe}

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := nids.New(det, nids.Config{Workers: 3})
	flows := make(chan flow.Flow, 1)
	go src.Run(context.Background(), flows, 600)
	if err := p.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Processed != 600 {
		t.Fatalf("processed %d, want 600", st.Processed)
	}
	if st.TruePos == 0 {
		t.Fatal("anomaly detector caught nothing")
	}
}

func TestPipelineCancellation(t *testing.T) {
	g := tinyGen(t)
	det := &nids.SignatureDetector{Engine: mustEngine(t, g)}
	p := nids.New(det, nids.Config{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make(chan flow.Flow)
	go src.Run(ctx, flows, 0) // unbounded stream

	done := make(chan error, 1)
	go func() { done <- p.Run(ctx, flows, nil) }()
	// Let it process a bit, then cancel; Run must return promptly.
	for p.Stats().Processed < 50 {
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestCancelledRunAlertAccounting runs a real pipeline with a slow alert
// consumer, cancels it mid-stream, and checks the invariant the fix
// establishes: the delivered-alert counter never exceeds what onAlert
// observed, and every attack verdict is either delivered or dropped.
// Meaningful under -race.
func TestCancelledRunAlertAccounting(t *testing.T) {
	g := tinyGen(t)
	det := &nids.SignatureDetector{Engine: mustEngine(t, g)}
	p := nids.New(det, nids.Config{Workers: 4})

	ctx, cancel := context.WithCancel(context.Background())
	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make(chan flow.Flow)
	go src.Run(ctx, flows, 0)

	var delivered atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx, flows, func(nids.Alert) {
			delivered.Add(1)
			time.Sleep(100 * time.Microsecond) // consumer lags: queue backs up
		})
	}()
	for p.Stats().Alerts < 5 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	st := p.Stats()
	if st.Alerts != delivered.Load() {
		t.Fatalf("alert counter %d != delivered callbacks %d", st.Alerts, delivered.Load())
	}
	if got := st.TruePos + st.FalseAlarms; st.Alerts+st.DroppedAlerts != got {
		t.Fatalf("alerts %d + dropped %d != attack verdicts %d", st.Alerts, st.DroppedAlerts, got)
	}
}

// TestTapSeesEveryScoredFlow wires a concurrent tap and checks it observes
// exactly the processed flows with their verdicts, across batched workers.
func TestTapSeesEveryScoredFlow(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)

	var tapped atomic.Int64
	var tapAttacks atomic.Int64
	p := nids.New(det, nids.Config{Workers: 3, MicroBatch: 8, Tap: func(f *flow.Flow, v nids.Verdict) {
		if f == nil {
			t.Error("tap got nil flow")
			return
		}
		tapped.Add(1)
		if v.IsAttack {
			tapAttacks.Add(1)
		}
	}})

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := make(chan flow.Flow, 32)
	go src.Run(context.Background(), flows, 700)
	if err := p.Run(context.Background(), flows, nil); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if tapped.Load() != st.Processed {
		t.Fatalf("tap saw %d flows, pipeline processed %d", tapped.Load(), st.Processed)
	}
	if tapAttacks.Load() != st.TruePos+st.FalseAlarms {
		t.Fatalf("tap saw %d attack verdicts, counters say %d", tapAttacks.Load(), st.TruePos+st.FalseAlarms)
	}
}

func TestTriageEndToEndWithPipeline(t *testing.T) {
	// Stream a bursty source through a signature detector and confirm
	// triage compresses campaign alerts substantially.
	g := tinyGen(t)
	det := &nids.SignatureDetector{Engine: mustEngine(t, g)}
	cfg := flow.DefaultSourceConfig()
	cfg.EpisodeEvery = 120
	cfg.EpisodeLen = 50
	cfg.EpisodeAttackRate = 0.9
	src, err := flow.NewSource(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := nids.New(det, nids.Config{Workers: 1}) // single worker keeps alert order sane
	triage := nids.NewTriage(2 * time.Minute)
	flows := make(chan flow.Flow, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1500; i++ {
			flows <- src.Next()
		}
		close(flows)
	}()
	if err := p.Run(t.Context(), flows, triage.Observe); err != nil {
		t.Fatal(err)
	}
	<-done
	incidents := triage.Flush()
	st := p.Stats()
	if st.Alerts == 0 {
		t.Skip("no alerts fired; nothing to triage")
	}
	if int64(len(incidents)) > st.Alerts {
		t.Fatalf("more incidents (%d) than alerts (%d)", len(incidents), st.Alerts)
	}
	total := 0
	for _, inc := range incidents {
		total += inc.AlertCount
	}
	if int64(total) != st.Alerts {
		t.Fatalf("incident alerts %d != pipeline alerts %d", total, st.Alerts)
	}
}

func mustEngine(t *testing.T, g *synth.Generator) *signature.Engine {
	t.Helper()
	train := g.Generate(2000, 74)
	rules, err := signature.MineRules(train, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := signature.NewEngine(train.Schema, rules)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestStatsEmptyNoNaN(t *testing.T) {
	var s nids.Stats
	snap := s.Snapshot()
	if snap.DR() != 0 || snap.FAR() != 0 {
		t.Fatal("empty stats should be zero, not NaN")
	}
}
