package adapt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/flow"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Publisher ships a retrained artifact into serving through the registry's
// staged deployment: Stage loads the candidate (and the path of its saved
// .plcn file) into the shadow slot, Promote atomically makes it live
// (retaining the displaced generation for /v2/rollback). The candidate is
// visible (and mirrored against) in shadow before it ever takes live
// traffic, and a gate rejection leaves it parked there for inspection.
type Publisher interface {
	Stage(path string, a *serve.Artifact) error
	Promote() error
	// LiveVersion reports the version the live slot serves: how the loop
	// tells a promote that landed but whose answer was lost from one that
	// failed.
	LiveVersion() (string, error)
}

// ServerPublisher deploys retrained artifacts into an in-process scoring
// server through its model registry.
type ServerPublisher struct{ Srv *serve.Server }

var _ Publisher = ServerPublisher{}

// Stage implements Publisher: load the candidate into shadow.
func (p ServerPublisher) Stage(_ string, a *serve.Artifact) error {
	return p.Srv.LoadSlot(registry.Shadow, a)
}

// Promote implements Publisher: shadow becomes live atomically.
func (p ServerPublisher) Promote() error { return p.Srv.Promote() }

// LiveVersion implements Publisher.
func (p ServerPublisher) LiveVersion() (string, error) {
	info, err := p.Srv.InfoTag(registry.Live)
	return info.Version, err
}

// HTTPPublisher deploys retrained artifacts into a remote pelican-serve
// via the /v2 registry API. The artifact path must be readable by the
// server (same host or shared filesystem).
type HTTPPublisher struct{ Client *serve.Client }

var _ Publisher = HTTPPublisher{}

// Stage implements Publisher via POST /v2/load?tag=shadow.
func (p HTTPPublisher) Stage(path string, _ *serve.Artifact) error {
	_, err := p.Client.LoadTag(path, registry.Shadow)
	return err
}

// Promote implements Publisher via POST /v2/promote.
func (p HTTPPublisher) Promote() error {
	_, err := p.Client.Promote()
	return err
}

// LiveVersion implements Publisher via GET /v2/models/live.
func (p HTTPPublisher) LiveVersion() (string, error) {
	info, err := p.Client.ModelTag(registry.Live)
	return info.Version, err
}

// Config tunes the adaptation loop.
type Config struct {
	// Monitor is the base configuration for the drift signals
	// (normal-score, attack-score, alert-rate, feature-mean); zero-valued
	// fields get MonitorConfig defaults. The attack-score monitor runs
	// half windows and a 1.5x threshold (attack verdicts are a minority of
	// flows, and campaigns sway their class mixture); the alert-rate
	// monitor runs a doubled threshold (campaigns legitimately swing it).
	Monitor MonitorConfig
	// BufferCap bounds the sliding retraining buffer. Default 4096.
	BufferCap int
	// MinRetrain is the fewest buffered flows worth retraining on; a trip
	// with less data is skipped (the monitor's cooldown schedules a later
	// retry). Default 256.
	MinRetrain int
	// RetrainEpochs is how many warm-start epochs each retrain runs over
	// the buffer. Default 3.
	RetrainEpochs int
	// LR is the warm-start learning rate — deliberately below a cold
	// start's, since retraining refines deployed weights. Default 0.003.
	LR float64
	// ArtifactDir is where retrained artifacts are written, one
	// content-addressed file per generation. Default os.TempDir().
	ArtifactDir string
	// Publisher ships each retrained artifact through the serving
	// registry's shadow slot (stage → gate → promote); nil means save-only.
	Publisher Publisher
	// HoldoutFrac is the fraction of the snapshot — its most recent flows,
	// the ones that best reflect post-drift traffic — excluded from
	// retraining and used to gate promotion: the candidate must score a
	// held-out detection rate no worse than the currently deployed model
	// (and not raise the held-out false-alarm rate by more than
	// gateFARSlack), or the retrain is rejected and never becomes live.
	// Default 0.2.
	HoldoutFrac float64
	// GateOff disables held-out gating: every successful retrain is staged
	// and promoted unconditionally.
	GateOff bool
	// OnEvent, when non-nil, observes every adaptation attempt (from the
	// Run goroutine).
	OnEvent func(Event)
	// Logger receives structured lifecycle records (drift trips, retrains,
	// gate verdicts, publish retries); nil silences them.
	Logger *obs.Logger
	// TraceIDFn, when non-nil, is sampled at each monitor trip to stamp
	// the Trigger with the trace ID of the scoring request whose verdict
	// closed the drift window — typically a serve.Client's LastRequestID.
	// It joins an adaptation event back to the /debug/traces entry (and
	// server logs) of the flow that tripped it.
	TraceIDFn func() string
	// Seed drives retraining shuffles and balancing draws. Default 1.
	Seed int64

	// publishBackoff is the first publish retry delay (see retryPublish).
	// 200ms, unless an in-package test shortens it.
	publishBackoff time.Duration
}

const (
	// retrainBatch is the retraining minibatch size.
	retrainBatch = 128
	// gateFARSlack is how much absolute held-out false-alarm-rate increase
	// a candidate may show and still promote — the guard against a
	// degenerate retrain "winning" on detection rate by alerting on
	// everything.
	gateFARSlack = 0.05
	// publishAttempts caps total tries per publisher call (stage or
	// promote): transient failures — a mid-reload server, a network blip
	// between sidecar and scoring plane — are retried with jittered
	// exponential backoff before the retrain is abandoned (and the drift
	// monitors left primed to re-trip).
	publishAttempts = 3
)

func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.MinRetrain <= 0 {
		c.MinRetrain = 256
	}
	if c.RetrainEpochs <= 0 {
		c.RetrainEpochs = 3
	}
	if c.LR <= 0 {
		c.LR = 0.003
	}
	if c.ArtifactDir == "" {
		c.ArtifactDir = os.TempDir()
	}
	if c.HoldoutFrac <= 0 {
		c.HoldoutFrac = 0.2
	}
	if c.HoldoutFrac > 0.5 {
		c.HoldoutFrac = 0.5
	}
	if c.publishBackoff <= 0 {
		c.publishBackoff = 200 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Trigger identifies which drift signal tripped and how hard.
type Trigger struct {
	// Signal is "normal-score", "attack-score", "alert-rate", or
	// "feature-mean".
	Signal string
	// Z is the drift statistic at the trip.
	Z float64
	// TraceID is the request trace that closed the drift window (from
	// Config.TraceIDFn); "" when unknown.
	TraceID string
}

// Event is one adaptation attempt: a monitor trip and what came of it.
type Event struct {
	Trigger  Trigger
	Buffered int
	// Skipped is set when the trip was not acted on (too few buffered
	// flows); Err carries failures of acted-on attempts.
	Skipped bool
	Err     error
	// TrainFlows/TrainLoss/Duration describe the retraining run.
	TrainFlows int
	TrainLoss  float64
	Duration   time.Duration
	// HoldoutFlows is how many buffered flows were held out of retraining
	// for the promotion gate (0 when the gate did not run: GateOff, no
	// publisher, or a buffer too thin to spare a meaningful holdout).
	HoldoutFlows int
	// CandidateDR/LiveDR are the gate's held-out detection rates (or, for
	// an attack-free holdout, accuracies) for the retrained candidate and
	// the deployed model; CandidateFAR/LiveFAR the matching false-alarm
	// rates.
	CandidateDR  float64
	LiveDR       float64
	CandidateFAR float64
	LiveFAR      float64
	// PublishTries is how many publisher calls the deployment took in
	// total (stage + promote, including retried ones); anything above two
	// means transient publish failures were absorbed by backoff.
	PublishTries int
	// Rejected is set when the gate refused to promote the candidate: it
	// stays staged in the shadow slot and the live model is untouched. The next retrain warm-starts from the live
	// weights again, not the rejected ones.
	Rejected bool
	// Version/Path identify the published artifact.
	Version string
	Path    string
}

// String renders the event for logs.
func (e Event) String() string {
	switch {
	case e.Skipped:
		return fmt.Sprintf("adapt: drift on %s (z=%.1f) skipped: only %d flows buffered",
			e.Trigger.Signal, e.Trigger.Z, e.Buffered)
	case e.Err != nil:
		return fmt.Sprintf("adapt: drift on %s (z=%.1f) failed: %v", e.Trigger.Signal, e.Trigger.Z, e.Err)
	case e.Rejected:
		return fmt.Sprintf("adapt: drift on %s (z=%.1f) -> retrained on %d flows, REJECTED by gate: candidate DR %.3f / FAR %.3f vs live %.3f / %.3f on %d held-out flows (candidate %s stays in shadow)",
			e.Trigger.Signal, e.Trigger.Z, e.TrainFlows, e.CandidateDR, e.CandidateFAR, e.LiveDR, e.LiveFAR, e.HoldoutFlows, e.Version)
	default:
		s := fmt.Sprintf("adapt: drift on %s (z=%.1f) -> retrained on %d flows (loss %.4f) -> published %s in %s",
			e.Trigger.Signal, e.Trigger.Z, e.TrainFlows, e.TrainLoss, e.Version, e.Duration.Round(time.Millisecond))
		if e.HoldoutFlows > 0 {
			s += fmt.Sprintf(" (gate: DR %.3f vs live %.3f on %d held-out)", e.CandidateDR, e.LiveDR, e.HoldoutFlows)
		}
		return s
	}
}

// Loop is the closed adaptation loop. Wire Observe as the pipeline's
// feedback tap (nids.Config.Tap) and run Run in its own goroutine; when
// drift trips, Run warm-start retrains the artifact's network on the
// buffered flows, saves a new artifact, publishes it, and re-baselines the
// monitors on the new model's output distribution.
type Loop struct {
	cfg Config

	// Four drift signals. The score monitors are conditioned on the
	// verdict: a campaign changes how many flows land on each side of the
	// verdict but barely moves either side's score distribution, so the
	// conditioned streams stay quiet under bursty-but-stationary traffic
	// while a model-vs-traffic mismatch (new attack variants scored with
	// unfamiliar logits) shifts them hard and persistently. The alert-rate
	// monitor is the mixture signal campaigns do swing, so it runs at a
	// doubled threshold as a backstop for catastrophic shifts (e.g. the
	// whole background distribution moving).
	normalScoreMon *Monitor
	attackScoreMon *Monitor
	alertMon       *Monitor
	featMon        *Monitor
	buf            *FlowBuffer

	// Retraining lineage. net/pipe/rng are touched only by Run's
	// goroutine; art is read from anywhere (reports, publishers), so it
	// swaps atomically and readers never wait out a retrain.
	art  atomic.Pointer[serve.Artifact]
	net  *nn.Network
	pipe *data.Pipeline
	rng  *rand.Rand

	trips    chan Trigger
	retrains atomic.Int64
}

// NewLoop builds an adaptation loop seeded with the currently deployed
// artifact: retraining warm-starts from its weights, and every published
// generation becomes the warm-start base for the next.
func NewLoop(a *serve.Artifact, cfg Config) (*Loop, error) {
	cfg = cfg.withDefaults()
	opt := nn.NewRMSprop(cfg.LR)
	opt.MaxNorm = 5
	net, pipe, err := a.NewNetwork(nn.NewSoftmaxCrossEntropy(), opt)
	if err != nil {
		return nil, fmt.Errorf("adapt: reconstruct %s for warm start: %w", a.ModelName, err)
	}
	mc := cfg.Monitor.withDefaults()
	// Attack verdicts are a minority of traffic, so that monitor runs half
	// windows to keep its fill time comparable — but campaigns concentrate
	// a single attack class, which legitimately sways the attack-score
	// mixture, so it also runs a raised threshold.
	attackMC := mc
	attackMC.RefWindow = max(mc.RefWindow/2, 64)
	attackMC.Window = max(mc.Window/2, 64)
	attackMC.Threshold = mc.Threshold * 1.5
	alertMC := mc
	alertMC.Threshold = mc.Threshold * 2
	l := &Loop{
		cfg:            cfg,
		normalScoreMon: NewMonitor(mc),
		attackScoreMon: NewMonitor(attackMC),
		alertMon:       NewMonitor(alertMC),
		featMon:        NewMonitor(mc),
		buf:            NewFlowBuffer(cfg.BufferCap),
		net:            net,
		pipe:           pipe,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		trips:          make(chan Trigger, 1),
	}
	l.art.Store(a)
	return l, nil
}

// Observe is the pipeline feedback tap: it buffers the labeled flow,
// updates the drift monitors, and wakes the Run goroutine on a trip. It is
// safe for concurrent use and cheap enough for the scoring hot path. The
// *flow.Flow is not retained; its Record (per-flow storage) is.
func (l *Loop) Observe(f *flow.Flow, v nids.Verdict) {
	if v.Failed {
		// The detector could not score this flow; there is nothing here
		// about the model-vs-traffic fit, and letting the zero verdict
		// into the monitors would read a scorer outage as drift.
		return
	}
	l.buf.Add(f.Record, f.TrueClass)

	isAttack := 0.0
	if v.IsAttack {
		isAttack = 1
	}
	feat := 0.0
	if len(f.Record.Numeric) > 0 {
		for _, x := range f.Record.Numeric {
			feat += x
		}
		feat /= float64(len(f.Record.Numeric))
	}

	if v.IsAttack {
		if z, tripped := l.attackScoreMon.Observe(v.Score); tripped {
			l.trip(Trigger{Signal: "attack-score", Z: z})
		}
	} else {
		if z, tripped := l.normalScoreMon.Observe(v.Score); tripped {
			l.trip(Trigger{Signal: "normal-score", Z: z})
		}
	}
	if z, tripped := l.alertMon.Observe(isAttack); tripped {
		l.trip(Trigger{Signal: "alert-rate", Z: z})
	}
	if z, tripped := l.featMon.Observe(feat); tripped {
		l.trip(Trigger{Signal: "feature-mean", Z: z})
	}
}

// trip wakes Run without ever blocking the scoring path: if a retrain is
// already pending, the extra trigger is dropped (the pending retrain will
// see the same buffered flows).
func (l *Loop) trip(t Trigger) {
	if l.cfg.TraceIDFn != nil {
		t.TraceID = l.cfg.TraceIDFn()
	}
	l.cfg.Logger.Info("drift tripped", "signal", t.Signal, "z", t.Z, "trace_id", t.TraceID)
	select {
	case l.trips <- t:
	default:
	}
}

// Run executes adaptation attempts until ctx is cancelled. It owns the
// retraining network; call it from exactly one goroutine.
func (l *Loop) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case trig := <-l.trips:
			ev := l.adapt(trig)
			l.logEvent(ev)
			if l.cfg.OnEvent != nil {
				l.cfg.OnEvent(ev)
			}
		}
	}
}

// logEvent emits one structured record per adaptation attempt, carrying
// the trace ID of the request that closed the drift window so the whole
// retrain lineage joins back to /debug/traces on the serving side.
func (l *Loop) logEvent(ev Event) {
	log := l.cfg.Logger
	if log == nil {
		return
	}
	kv := []any{
		"signal", ev.Trigger.Signal, "z", ev.Trigger.Z,
		"trace_id", ev.Trigger.TraceID, "buffered", ev.Buffered,
	}
	switch {
	case ev.Skipped:
		log.Info("retrain skipped", kv...)
	case ev.Err != nil:
		log.Error("adaptation failed", append(kv, "error", ev.Err, "publish_tries", ev.PublishTries)...)
	case ev.Rejected:
		log.Warn("candidate rejected by gate", append(kv,
			"version", ev.Version, "train_flows", ev.TrainFlows,
			"candidate_dr", ev.CandidateDR, "candidate_far", ev.CandidateFAR,
			"live_dr", ev.LiveDR, "live_far", ev.LiveFAR,
			"holdout_flows", ev.HoldoutFlows)...)
	default:
		kv = append(kv, "version", ev.Version, "train_flows", ev.TrainFlows,
			"train_loss", ev.TrainLoss, "publish_tries", ev.PublishTries,
			"dur", ev.Duration)
		if ev.HoldoutFlows > 0 {
			kv = append(kv, "candidate_dr", ev.CandidateDR, "live_dr", ev.LiveDR,
				"holdout_flows", ev.HoldoutFlows)
		}
		log.Info("model published", kv...)
	}
}

// minHoldout is the fewest held-out flows a promotion gate is allowed to
// judge on; a thinner holdout skips the gate rather than gamble the live
// model on a noisy estimate.
const minHoldout = 32

// adapt services one monitor trip: warm-start retrain on the older part of
// the buffer, gate on the held-out recent part (candidate vs deployed),
// stage into shadow, and promote — or reject — accordingly.
func (l *Loop) adapt(trig Trigger) Event {
	ev := Event{Trigger: trig, Buffered: l.buf.Len()}
	if ev.Buffered < l.cfg.MinRetrain {
		// Not enough evidence to retrain on; the monitor cooldown will
		// re-trip later if the drift persists.
		ev.Skipped = true
		return ev
	}
	start := time.Now()

	recs, labels := l.buf.Snapshot()
	art := l.art.Load()

	// Carve the holdout off the recent end of the snapshot: the newest
	// flows are the best proxy for the post-drift traffic the promoted
	// model would face, and excluding them from retraining keeps the gate
	// honest (the candidate never trains on its own exam).
	n := len(recs)
	holdN := 0
	if !l.cfg.GateOff && l.cfg.Publisher != nil {
		holdN = int(float64(n) * l.cfg.HoldoutFrac)
		if n-holdN < l.cfg.MinRetrain {
			holdN = n - l.cfg.MinRetrain
		}
		if holdN < minHoldout {
			holdN = 0
		}
	}
	trainRecs, trainLabels := recs[:n-holdN], labels[:n-holdN]

	idx := balancedIndices(l.rng, trainLabels, art.Classes())
	f := l.pipe.Width()
	x := tensor.New(len(idx), f)
	y := make([]int, len(idx))
	for i, j := range idx {
		l.pipe.ApplyInto(&trainRecs[j], x.Row(i))
		y[i] = trainLabels[j]
	}

	stats := l.net.PartialFit(x.Reshape(len(idx), 1, f), y, nn.FitConfig{
		Epochs: l.cfg.RetrainEpochs, BatchSize: retrainBatch,
		Shuffle: true, RNG: l.rng,
	})
	ev.TrainFlows = len(idx)
	ev.TrainLoss = stats[len(stats)-1].TrainLoss

	next, err := serve.NewArtifact(art.ModelName, art.Block, art.Schema, l.pipe, l.net)
	if err != nil {
		ev.Err = fmt.Errorf("capture artifact: %w", err)
		l.discardRetrain(&ev)
		return ev
	}
	// Compile the float32 inference plan before publication: for
	// in-process publishers this warms the exact plan cache the swapped-in
	// replicas will read (the reload never pays the lowering inline), and
	// an artifact the compiler cannot express — which no server could
	// load — fails here, before the server sees it.
	if _, err := next.Plan(); err != nil {
		ev.Err = fmt.Errorf("lower artifact: %w", err)
		l.discardRetrain(&ev)
		return ev
	}
	path := filepath.Join(l.cfg.ArtifactDir, fmt.Sprintf("%s-%s.plcn", next.ModelName, next.Version()))
	if err := serve.SaveArtifactFile(path, next); err != nil {
		ev.Err = fmt.Errorf("save artifact: %w", err)
		l.discardRetrain(&ev)
		return ev
	}
	ev.Version = next.Version()
	ev.Path = path

	// Gate: the candidate must be no worse than the deployed model on the
	// held-out slice — detection rate first, with a false-alarm-rate guard
	// so a retrain cannot "win" by alerting on everything.
	pass := true
	if holdN > 0 {
		holdRecs, holdLabels := recs[n-holdN:], labels[n-holdN:]
		// Both sides score through the compiled plan they serve with:
		// next's was lowered above, and art's is lowered once per
		// generation and cached on the artifact.
		liveDet, err := art.NewInferDetector()
		if err != nil {
			ev.Err = fmt.Errorf("rebuild live detector for gate: %w", err)
			l.discardRetrain(&ev)
			return ev
		}
		candDet, err := next.NewInferDetector()
		if err != nil {
			ev.Err = fmt.Errorf("build candidate detector for gate: %w", err)
			l.discardRetrain(&ev)
			return ev
		}
		cand := gateScore(candDet, holdRecs, holdLabels)
		live := gateScore(liveDet, holdRecs, holdLabels)
		ev.HoldoutFlows = holdN
		ev.CandidateDR, ev.CandidateFAR = cand.dr, cand.far
		ev.LiveDR, ev.LiveFAR = live.dr, live.far
		pass = cand.dr >= live.dr && cand.far <= live.far+gateFARSlack
		l.cfg.Logger.Info("gate verdict", "pass", pass, "version", ev.Version,
			"trace_id", trig.TraceID, "candidate_dr", cand.dr, "candidate_far", cand.far,
			"live_dr", live.dr, "live_far", live.far, "holdout_flows", holdN)
	}

	pub := l.cfg.Publisher
	if pub != nil {
		// Stage first: pass or fail, the candidate lands in the shadow
		// slot, where mirroring accumulates live-vs-candidate agreement
		// counters and operators can inspect (or manually promote) it.
		if err := l.retryPublish(&ev, func() error { return pub.Stage(path, next) }); err != nil {
			ev.Err = fmt.Errorf("stage artifact: %w", err)
			l.discardRetrain(&ev)
			return ev
		}
	}
	if !pass {
		// Rejected: the live model is untouched, and the next retrain must
		// warm-start from the deployed weights, not the rejected ones. The
		// monitors keep their reference too — persisting drift re-trips
		// after cooldown and retries on a fresher buffer.
		ev.Rejected = true
		l.discardRetrain(&ev)
		ev.Duration = time.Since(start)
		return ev
	}
	if pub != nil {
		err := l.retryPublish(&ev, func() error {
			err := pub.Promote()
			if err == nil {
				return nil
			}
			// Promote twice is not promote once: if this one landed and
			// only its answer was lost, a blind retry finds an empty shadow
			// and the loop would discard a retrain the server now serves.
			if live, lerr := pub.LiveVersion(); lerr == nil && live == next.Version() {
				return nil
			}
			return err
		})
		if err != nil {
			// Publication failed: keep the old monitors' reference so a
			// persisting drift re-trips after cooldown and retries.
			ev.Err = fmt.Errorf("publish artifact: %w", err)
			l.discardRetrain(&ev)
			return ev
		}
	}
	l.art.Store(next)
	l.retrains.Add(1)
	// The retrained model's outputs are the new normal: re-baseline every
	// monitor on post-publish traffic.
	l.normalScoreMon.Reset()
	l.attackScoreMon.Reset()
	l.alertMon.Reset()
	l.featMon.Reset()

	ev.Duration = time.Since(start)
	return ev
}

// retryPublish runs one publisher call through the shared attempt loop —
// up to publishAttempts tries, every failure retried after the shared
// backoff — and accumulates the tries on ev. It blocks the loop,
// deliberately: a retrain is worthless if it cannot ship, and the
// monitors stay quiet until this attempt resolves either way.
func (l *Loop) retryPublish(ev *Event, fn func() error) error {
	attempt := 0
	return resilience.Retry(publishAttempts, l.cfg.publishBackoff, func(error) bool { return true }, func() error {
		attempt++
		ev.PublishTries++
		err := fn()
		if err != nil {
			l.cfg.Logger.Warn("publish attempt failed", "attempt", attempt,
				"of", publishAttempts, "version", ev.Version,
				"trace_id", ev.Trigger.TraceID, "error", err)
		}
		return err
	})
}

// gateVerdicts summarizes a detector's held-out performance. When the
// holdout contains attacks, dr is the detection rate and far the
// false-alarm rate over its normal flows; an attack-free holdout falls
// back to dr = accuracy, far = alert rate.
type gateVerdicts struct {
	dr, far float64
}

// gateScore evaluates det on the held-out flows.
func gateScore(det nids.BatchDetector, recs []data.Record, labels []int) gateVerdicts {
	ptrs := make([]*data.Record, len(recs))
	for i := range recs {
		ptrs[i] = &recs[i]
	}
	verdicts := make([]nids.Verdict, len(recs))
	det.DetectBatch(ptrs, verdicts)
	var attacks, caught, normals, alarms, correct int
	for i, v := range verdicts {
		if labels[i] != 0 {
			attacks++
			if v.IsAttack {
				caught++
			}
		} else {
			normals++
			if v.IsAttack {
				alarms++
			}
		}
		if v.Class == labels[i] {
			correct++
		}
	}
	if attacks == 0 {
		return gateVerdicts{dr: ratio(correct, len(recs)), far: ratio(alarms, normals)}
	}
	return gateVerdicts{dr: ratio(caught, attacks), far: ratio(alarms, normals)}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// discardRetrain drops the just-trained weights on every path that does
// not deploy them — gate rejection or any failure after PartialFit — so
// the next attempt warm-starts from the deployed generation, never from
// an unvetted (possibly torched) retrain. A reset failure is recorded on
// the event unless a primary error already is.
func (l *Loop) discardRetrain(ev *Event) {
	if err := l.resetNet(); err != nil && ev.Err == nil {
		ev.Err = fmt.Errorf("reset warm-start network: %w", err)
	}
}

// resetNet rebuilds the warm-start network from the deployed artifact.
func (l *Loop) resetNet() error {
	opt := nn.NewRMSprop(l.cfg.LR)
	opt.MaxNorm = 5
	net, pipe, err := l.art.Load().NewNetwork(nn.NewSoftmaxCrossEntropy(), opt)
	if err != nil {
		return err
	}
	l.net, l.pipe = net, pipe
	return nil
}

// Artifact returns the most recently published generation (the seed
// artifact before any retrain).
func (l *Loop) Artifact() *serve.Artifact { return l.art.Load() }

// Version returns the current generation's content-addressed version.
func (l *Loop) Version() string { return l.Artifact().Version() }

// Retrains returns how many generations have been published.
func (l *Loop) Retrains() int64 { return l.retrains.Load() }

// Buffer exposes the sliding flow buffer (for reporting).
func (l *Loop) Buffer() *FlowBuffer { return l.buf }

// Stat returns the maximum-magnitude current drift statistic across the
// monitored signals and that signal's name.
func (l *Loop) Stat() (signal string, z float64) {
	signal, z = "normal-score", l.normalScoreMon.Stat()
	for _, s := range []struct {
		name string
		m    *Monitor
	}{
		{"attack-score", l.attackScoreMon},
		{"alert-rate", l.alertMon},
		{"feature-mean", l.featMon},
	} {
		if v := s.m.Stat(); math.Abs(v) > math.Abs(z) {
			signal, z = s.name, v
		}
	}
	return signal, z
}

// balancedIndices sqrt-oversamples minority classes: each class present in
// the buffer contributes round(sqrt(count * maxCount)) samples — the
// geometric mean of its own count and the majority count — drawn with
// replacement. Majority classes keep their natural weight, rare attack
// classes get enough repetition for the gradient to see them, and absent
// classes are never fabricated.
func balancedIndices(rng *rand.Rand, labels []int, classes int) []int {
	byClass := make([][]int, classes)
	for i, c := range labels {
		if c >= 0 && c < classes {
			byClass[c] = append(byClass[c], i)
		}
	}
	maxCount := 0
	for _, members := range byClass {
		if len(members) > maxCount {
			maxCount = len(members)
		}
	}
	var idx []int
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		want := int(math.Round(math.Sqrt(float64(len(members)) * float64(maxCount))))
		for k := 0; k < want; k++ {
			idx = append(idx, members[rng.Intn(len(members))])
		}
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
