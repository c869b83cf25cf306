// Package nids assembles the full intrusion-detection pipeline of the
// paper's Fig. 1: a traffic source feeding a detector whose alerts land in
// a security-team queue. Detectors are hot-swappable — the Pelican network
// or any other trained model, the signature engine of §VI, or an anomaly
// profile — so the paper's supervised-vs-signature-vs-anomaly arguments
// can be measured on identical traffic. A trained model scores through its
// compiled float32 plan (infer.Detector, which implements BatchDetector),
// so this package does not link the training stack.
//
// The pipeline is a bounded-channel goroutine graph with clean shutdown:
// Source → [workers × (preprocess + detect)] → alert collector. Workers
// score flows in micro-batches (Config.MicroBatch) so batch-capable
// detectors amortize one network pass over several queued flows.
package nids

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/signature"
)

// Verdict is one detector decision.
type Verdict struct {
	IsAttack bool
	// Class is the predicted class (0 = normal) when the detector is
	// class-aware; -1 when it only flags anomalies.
	Class int
	// RuleID is the matching signature for signature-based detectors.
	RuleID int
	// Score is a detector-specific confidence/anomaly value.
	Score float64
	// Failed marks a verdict that carries no information because the
	// detector could not score the flow (e.g. a remote scoring request
	// errored). Failed verdicts are excluded from detection counters and
	// never raise alerts; they are tallied separately.
	Failed bool
}

// Detector classifies a raw flow record.
type Detector interface {
	Name() string
	Detect(rec *data.Record) Verdict
}

// BatchDetector is implemented by detectors that can amortize work over a
// small batch of flows — one GEMM per batch instead of one matvec per flow.
// DetectBatch writes verdicts[i] for recs[i]; len(verdicts) == len(recs).
type BatchDetector interface {
	Detector
	DetectBatch(recs []*data.Record, verdicts []Verdict)
}

// SignatureDetector wraps the Snort-style engine.
type SignatureDetector struct {
	Engine *signature.Engine
}

var _ Detector = (*SignatureDetector)(nil)

// Name implements Detector.
func (d *SignatureDetector) Name() string { return "signature" }

// Detect implements Detector.
func (d *SignatureDetector) Detect(rec *data.Record) Verdict {
	if rule, ok := d.Engine.Match(rec); ok {
		return Verdict{IsAttack: true, Class: rule.Class, RuleID: rule.ID, Score: 1}
	}
	return Verdict{Class: 0}
}

// AnomalyDetector wraps a calibrated anomaly profile; it is class-blind.
type AnomalyDetector struct {
	Profile *anomaly.Thresholded
	Pipe    *data.Pipeline
}

var _ Detector = (*AnomalyDetector)(nil)

// Name implements Detector.
func (d *AnomalyDetector) Name() string { return d.Profile.D.Name() }

// Detect implements Detector.
func (d *AnomalyDetector) Detect(rec *data.Record) Verdict {
	row := d.Pipe.Apply(rec)
	score := d.Profile.D.Score(row)
	return Verdict{IsAttack: score > d.Profile.Threshold, Class: -1, Score: score}
}

// Alert is one entry in the security team's queue.
type Alert struct {
	Flow    flow.Flow
	Verdict Verdict
	At      time.Time
}

// Stats counts pipeline outcomes; all fields are atomically updated and
// safe to read concurrently via the Snapshot method.
type Stats struct {
	processed     atomic.Int64
	alerts        atomic.Int64
	dropped       atomic.Int64
	scoreFailures atomic.Int64
	truePos       atomic.Int64
	falseAlarm    atomic.Int64
	missed        atomic.Int64
	trueNeg       atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Processed int64
	// Alerts counts alerts actually delivered to the queue; DroppedAlerts
	// counts attack verdicts whose alert could not be enqueued because the
	// pipeline was cancelled mid-delivery. The two never overlap.
	Alerts        int64
	DroppedAlerts int64
	// ScoreFailures counts flows whose verdict was marked Failed (the
	// detector could not score them); they appear in Processed but in no
	// detection counter.
	ScoreFailures int64
	TruePos       int64
	FalseAlarms   int64
	Missed        int64
	TrueNeg       int64
}

// Snapshot returns a consistent-enough copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Processed:     s.processed.Load(),
		Alerts:        s.alerts.Load(),
		DroppedAlerts: s.dropped.Load(),
		ScoreFailures: s.scoreFailures.Load(),
		TruePos:       s.truePos.Load(),
		FalseAlarms:   s.falseAlarm.Load(),
		Missed:        s.missed.Load(),
		TrueNeg:       s.trueNeg.Load(),
	}
}

// DR returns the realized detection rate.
func (s StatsSnapshot) DR() float64 {
	n := s.TruePos + s.Missed
	if n == 0 {
		return 0
	}
	return float64(s.TruePos) / float64(n)
}

// FAR returns the realized false-alarm rate.
func (s StatsSnapshot) FAR() float64 {
	n := s.FalseAlarms + s.TrueNeg
	if n == 0 {
		return 0
	}
	return float64(s.FalseAlarms) / float64(n)
}

// String renders a one-line summary.
func (s StatsSnapshot) String() string {
	out := fmt.Sprintf("processed=%d alerts=%d DR=%.2f%% FAR=%.2f%%",
		s.Processed, s.Alerts, s.DR()*100, s.FAR()*100)
	if s.DroppedAlerts > 0 {
		out += fmt.Sprintf(" dropped=%d", s.DroppedAlerts)
	}
	if s.ScoreFailures > 0 {
		out += fmt.Sprintf(" score-failures=%d", s.ScoreFailures)
	}
	return out
}

// Config controls the pipeline.
type Config struct {
	// Workers is the number of concurrent detector goroutines (default 4).
	Workers int
	// MicroBatch caps how many queued flows a worker drains into one
	// detector call. Batching amortizes one network pass (one GEMM) over
	// the batch instead of a per-flow matvec; the first flow of a batch is
	// never delayed — workers only gather flows that are already waiting.
	// Defaults to 32 for detectors implementing BatchDetector (the serve
	// path's measured sweet spot: its dynamic batcher sustained ~2.5× the
	// records/s of unbatched scoring at flush size 32), 1 otherwise.
	// The tradeoff: larger batches amortize the GEMM further only while
	// flows are actually queuing, and every flow in a batch waits for the
	// whole batch's verdicts — raise it for throughput under sustained
	// overload, lower it when per-flow alert latency on bursty traffic
	// matters more.
	MicroBatch int
	// Tap, when non-nil, observes every scored flow and its verdict — the
	// feedback stream a drift monitor or adaptation loop consumes (alerts
	// only carry attack verdicts; a monitor needs the full distribution).
	// It is invoked concurrently from all worker goroutines and on the
	// scoring hot path, so it must be safe for concurrent use and cheap.
	// The *flow.Flow points into a reused worker batch buffer: it is valid
	// only for the duration of the call — copy what must be retained
	// (the Record's slices are per-flow and safe to reference).
	Tap func(f *flow.Flow, v Verdict)
}

// Pipeline is a running NIDS instance.
type Pipeline struct {
	det   Detector
	cfg   Config
	stats Stats
}

// New constructs a pipeline around a detector.
func New(det Detector, cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MicroBatch <= 0 {
		if _, ok := det.(BatchDetector); ok {
			cfg.MicroBatch = 32
		} else {
			cfg.MicroBatch = 1
		}
	}
	return &Pipeline{det: det, cfg: cfg}
}

// Stats exposes the live counters.
func (p *Pipeline) Stats() StatsSnapshot { return p.stats.Snapshot() }

// Run consumes flows until in closes or ctx is cancelled, invoking onAlert
// for every alert (from the single collector goroutine — onAlert needs no
// locking). It blocks until all workers have drained.
func (p *Pipeline) Run(ctx context.Context, in <-chan flow.Flow, onAlert func(Alert)) error {
	// One slot: alerts block when the security team falls behind, which is
	// deliberate backpressure.
	alerts := make(chan Alert, 1)

	var wg sync.WaitGroup
	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-owned scoring buffers, reused across batches.
			var ws workerScratch
			batch := make([]flow.Flow, 0, p.cfg.MicroBatch)
			for {
				select {
				case f, ok := <-in:
					if !ok {
						return
					}
					batch = append(batch[:0], f)
					// Gather flows that are already queued — never wait
					// for traffic to fill a batch.
				gather:
					for len(batch) < p.cfg.MicroBatch {
						select {
						case f2, ok := <-in:
							if !ok {
								p.handleBatch(ctx, batch, &ws, alerts)
								return
							}
							batch = append(batch, f2)
						default:
							break gather
						}
					}
					p.handleBatch(ctx, batch, &ws, alerts)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range alerts {
			if onAlert != nil {
				onAlert(a)
			}
		}
	}()

	wg.Wait()
	close(alerts)
	<-done
	return ctx.Err()
}

// workerScratch holds one worker's reusable scoring buffers.
type workerScratch struct {
	recs     []*data.Record
	verdicts []Verdict
}

// handleBatch scores a batch of flows — one detector call when the
// detector supports batching, per-flow calls otherwise — and updates the
// counters.
func (p *Pipeline) handleBatch(ctx context.Context, batch []flow.Flow, ws *workerScratch, alerts chan<- Alert) {
	bd, ok := p.det.(BatchDetector)
	if !ok || len(batch) == 1 {
		for i := range batch {
			p.record(ctx, &batch[i], p.det.Detect(&batch[i].Record), alerts)
		}
		return
	}
	ws.recs = ws.recs[:0]
	for i := range batch {
		ws.recs = append(ws.recs, &batch[i].Record)
	}
	if cap(ws.verdicts) < len(batch) {
		ws.verdicts = make([]Verdict, len(batch))
	}
	verdicts := ws.verdicts[:len(batch)]
	bd.DetectBatch(ws.recs, verdicts)
	for i := range batch {
		p.record(ctx, &batch[i], verdicts[i], alerts)
	}
}

// record updates the counters for one scored flow and enqueues its alert.
func (p *Pipeline) record(ctx context.Context, f *flow.Flow, v Verdict, alerts chan<- Alert) {
	p.stats.processed.Add(1)
	if v.Failed {
		// No information: counting this as a negative would silently skew
		// DR/FAR whenever a remote scorer hiccups.
		p.stats.scoreFailures.Add(1)
		if p.cfg.Tap != nil {
			p.cfg.Tap(f, v)
		}
		return
	}
	actualAttack := f.TrueClass != 0
	switch {
	case v.IsAttack && actualAttack:
		p.stats.truePos.Add(1)
	case v.IsAttack && !actualAttack:
		p.stats.falseAlarm.Add(1)
	case !v.IsAttack && actualAttack:
		p.stats.missed.Add(1)
	default:
		p.stats.trueNeg.Add(1)
	}
	if p.cfg.Tap != nil {
		p.cfg.Tap(f, v)
	}
	if v.IsAttack {
		// Count only after the alert is actually delivered: on cancellation
		// the enqueue is abandoned, and counting it as an alert would make
		// the counter disagree with what onAlert ever observes. Abandoned
		// deliveries are accounted separately as drops.
		select {
		case alerts <- Alert{Flow: *f, Verdict: v, At: f.Timestamp}:
			p.stats.alerts.Add(1)
		case <-ctx.Done():
			p.stats.dropped.Add(1)
		}
	}
}
