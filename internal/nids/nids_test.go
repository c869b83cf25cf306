package nids

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
	"repro/internal/models"
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

// trainTinyModel fits a small MLP detector on generator traffic.
func trainTinyModel(t *testing.T, g *synth.Generator) *ModelDetector {
	t.Helper()
	ds := g.Generate(1200, 71)
	x, y, pipe := data.Preprocess(ds)
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), g.Schema().EncodedWidth(), g.Schema().NumClasses())
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.005))
	x3 := x.Reshape(x.Dim(0), 1, x.Dim(1))
	net.Fit(x3, y, nn.FitConfig{Epochs: 8, BatchSize: 128, Shuffle: true, RNG: rng})
	return &ModelDetector{ModelName: "mlp", Net: net, Pipe: pipe}
}

func TestModelDetectorOnPipeline(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := New(det, Config{Workers: 4})
	flows := make(chan flow.Flow, 1)
	go src.Run(context.Background(), flows, 800)

	var mu sync.Mutex
	var alerts []Alert
	if err := p.Run(context.Background(), flows, func(a Alert) {
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

// TestDetectBatchMatchesDetect proves micro-batched scoring and per-flow
// scoring agree verdict-for-verdict.
func TestDetectBatchMatchesDetect(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)
	ds := g.Generate(64, 75)

	recs := make([]*data.Record, len(ds.Records))
	for i := range ds.Records {
		recs[i] = &ds.Records[i]
	}
	batched := make([]Verdict, len(recs))
	det.DetectBatch(recs, batched)
	for i, rec := range recs {
		single := det.Detect(rec)
		if single != batched[i] {
			t.Fatalf("record %d: batch verdict %+v != single verdict %+v", i, batched[i], single)
		}
	}
}

// TestDetectBatchConcurrent hammers a shared ModelDetector from several
// goroutines (meaningful under -race): the internal mutex must serialize
// access to the reused network buffers without corrupting verdicts.
func TestDetectBatchConcurrent(t *testing.T) {
	g := tinyGen(t)
	det := trainTinyModel(t, g)
	ds := g.Generate(32, 76)
	recs := make([]*data.Record, len(ds.Records))
	for i := range ds.Records {
		recs[i] = &ds.Records[i]
	}
	want := make([]Verdict, len(recs))
	det.DetectBatch(recs, want)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]Verdict, len(recs))
			for it := 0; it < 10; it++ {
				det.DetectBatch(recs, got)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("concurrent DetectBatch diverged at record %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
	p := New(det, Config{Workers: 2, MicroBatch: 16})
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
	det := &SignatureDetector{Engine: eng}

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := New(det, Config{Workers: 2})
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
	det := &AnomalyDetector{Profile: th, Pipe: pipe}

	src, err := flow.NewSource(g, flow.DefaultSourceConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := New(det, Config{Workers: 3})
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
	det := &SignatureDetector{Engine: mustEngine(t, g)}
	p := New(det, Config{Workers: 2})

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

// TestAlertCountedOnlyAfterDelivery pins the cancellation-accounting fix:
// an alert abandoned because the context died mid-enqueue must not be
// counted as delivered — it lands in DroppedAlerts instead.
func TestAlertCountedOnlyAfterDelivery(t *testing.T) {
	g := tinyGen(t)
	det := &SignatureDetector{Engine: mustEngine(t, g)}
	p := New(det, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()                   // already dead: every enqueue on a full channel must abandon
	alerts := make(chan Alert) // unbuffered and never read
	f := flow.Flow{TrueClass: 1}
	p.record(ctx, &f, Verdict{IsAttack: true, Class: 1}, alerts)

	st := p.Stats()
	if st.Alerts != 0 {
		t.Fatalf("undelivered alert was counted: Alerts=%d", st.Alerts)
	}
	if st.DroppedAlerts != 1 {
		t.Fatalf("DroppedAlerts=%d, want 1", st.DroppedAlerts)
	}
	if st.TruePos != 1 || st.Processed != 1 {
		t.Fatalf("detection counters must still move: %+v", st)
	}
}

// TestCancelledRunAlertAccounting runs a real pipeline with a slow alert
// consumer, cancels it mid-stream, and checks the invariant the fix
// establishes: the delivered-alert counter never exceeds what onAlert
// observed, and every attack verdict is either delivered or dropped.
// Meaningful under -race.
func TestCancelledRunAlertAccounting(t *testing.T) {
	g := tinyGen(t)
	det := &SignatureDetector{Engine: mustEngine(t, g)}
	p := New(det, Config{Workers: 4})

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
		done <- p.Run(ctx, flows, func(Alert) {
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
	p := New(det, Config{Workers: 3, MicroBatch: 8, Tap: func(f *flow.Flow, v Verdict) {
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

// TestFailedVerdictsExcludedFromCounters pins the no-information rule: a
// Failed verdict (remote scorer outage) moves Processed and ScoreFailures
// but no detection counter, and never raises an alert.
func TestFailedVerdictsExcludedFromCounters(t *testing.T) {
	g := tinyGen(t)
	det := &SignatureDetector{Engine: mustEngine(t, g)}
	p := New(det, Config{Workers: 1})
	alerts := make(chan Alert, 4)
	f := flow.Flow{TrueClass: 1}
	p.record(context.Background(), &f, Verdict{IsAttack: true, Failed: true}, alerts)

	st := p.Stats()
	if st.Processed != 1 || st.ScoreFailures != 1 {
		t.Fatalf("processed=%d failures=%d, want 1/1", st.Processed, st.ScoreFailures)
	}
	if st.TruePos+st.FalseAlarms+st.Missed+st.TrueNeg != 0 {
		t.Fatalf("failed verdict moved detection counters: %+v", st)
	}
	if st.Alerts != 0 || len(alerts) != 0 {
		t.Fatal("failed verdict raised an alert")
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

func TestStatsSnapshotMath(t *testing.T) {
	var s Stats
	s.truePos.Store(80)
	s.missed.Store(20)
	s.falseAlarm.Store(5)
	s.trueNeg.Store(95)
	snap := s.Snapshot()
	if snap.DR() != 0.8 {
		t.Fatalf("DR = %v, want 0.8", snap.DR())
	}
	if snap.FAR() != 0.05 {
		t.Fatalf("FAR = %v, want 0.05", snap.FAR())
	}
	if snap.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestStatsEmptyNoNaN(t *testing.T) {
	var s Stats
	snap := s.Snapshot()
	if snap.DR() != 0 || snap.FAR() != 0 {
		t.Fatal("empty stats should be zero, not NaN")
	}
}
