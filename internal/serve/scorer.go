package serve

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/registry"
)

// scorer is one slot's scoring machinery: sharded detector replicas fed by
// a private dynamic batcher. Every slot in the model registry owns its
// own scorer, so a request is validated, batched, and scored entirely
// within one model generation — promotions and rollbacks re-point tags at
// instances, they never tear a request across generations. A scorer is
// immutable after construction; retiring a slot closes its scorer, which
// drains the queue (every accepted request is scored or, past its
// deadline, shed with accounting) and stops the workers.
type scorer struct {
	b         *batcher
	detectors []nids.BatchDetector
	maxBatch  int
	gm        *serverMetrics
	stages    *stageMetrics // this slot's per-stage latency histograms
	chaos     chaosDelayer
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// chaosDelayer is the slice of chaos.Injector the scorer consumes: the
// injected extra service time for one replica's next batch. Declared as a
// local interface so the scorer stays testable without the chaos package.
type chaosDelayer interface {
	DelayFor(replica int) time.Duration
}

// submitResult is the outcome of funneling one request through a slot's
// batcher.
type submitResult int

const (
	// submitAccepted: the span is queued; its owner's complete runs once
	// every record is scored or shed.
	submitAccepted submitResult = iota
	// submitClosed: the slot was swapped mid-request (or a mirror found
	// the queue full); a live caller re-resolves the tag and retries on
	// the successor generation.
	submitClosed
	// submitExpired: the request's deadline ran out before it was
	// accepted; every record is shed and nothing will complete the span.
	submitExpired
)

// newScorer builds the replicas for a — each a compiled float32 inference
// engine over the artifact's shared plan — and starts the scoring workers.
// gm (may be nil in tests) receives the server-wide batch aggregates;
// per-slot counters are the scoring core's business — it knows which tag
// a request resolved to, the scorer deliberately does not (a promotion
// re-tags this scorer without touching it).
func newScorer(a *Artifact, cfg Config, gm *serverMetrics) (*scorer, error) {
	sc := &scorer{maxBatch: cfg.MaxBatch, gm: gm, stages: newStageMetrics(), chaos: cfg.Chaos}
	for i := 0; i < cfg.Replicas; i++ {
		// The first replica triggers the one-time lowering; the rest (and
		// any pre-validation done before publish) share the cached plan.
		det, err := a.NewInferDetector()
		if err != nil {
			return nil, err
		}
		sc.detectors = append(sc.detectors, det)
	}
	sc.b = newBatcher(batcherConfig{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait, QueueDepth: cfg.QueueDepth})
	for i := 0; i < cfg.Replicas; i++ {
		sc.workerWG.Add(1)
		go sc.worker(i)
	}
	return sc, nil
}

// worker is one replica's scoring loop: it pulls flushed batches, sheds
// the segments whose deadline expired while they queued, scores the rest
// on its own replica, and writes the verdicts back into the originating
// spans. Shedding happens here — at the last moment before the network
// pass — because that is when queueing delay has actually been paid: a
// segment that waited out its budget is settled as shed instead of
// getting a stale verdict nobody is waiting for. The worker also feeds
// the queue_wait/batch_assembly/infer histograms and appends the matching
// spans to each request's trace — before settling the segment, so a trace
// is complete by the time its completion can finish it.
//
//pelican:noalloc
func (sc *scorer) worker(i int) {
	defer sc.workerWG.Done()
	replica := strconv.Itoa(i)
	recs := make([]*data.Record, 0, sc.maxBatch)
	live := make([]segment, 0, sc.maxBatch)
	verdicts := make([]nids.Verdict, sc.maxBatch)
	// attrs is the infer span's attribute list, identical for every trace
	// in a batch: built once per batch into this recycled buffer instead
	// of a fresh slice literal per trace.
	attrs := make([]string, 0, 6)
	for fb := range sc.b.batches {
		st := sc.stages
		pickup := time.Now()
		st.assembly.ObserveDuration(fb.flushedAt.Sub(fb.openedAt))
		st.batchSize.Observe(float64(fb.n))
		recs, live = recs[:0], live[:0]
		for _, sg := range fb.segs {
			if sg.sp.ctx != nil && sg.sp.ctx.Err() != nil {
				sg.sp.settle(sg.hi-sg.lo, true)
				continue
			}
			for j := sg.lo; j < sg.hi; j++ {
				recs = append(recs, &sg.sp.recs[j])
			}
			live = append(live, sg)
			st.queueWait.ObserveDuration(pickup.Sub(sg.sp.enqueuedAt))
		}
		if len(recs) > 0 {
			var chaosDelay time.Duration
			inferStart := pickup
			if sc.chaos != nil {
				// The injected stall is charged to the infer stage: chaos
				// models a slow replica, and stage attribution is exactly what
				// the chaos e2e asserts on.
				if d := sc.chaos.DelayFor(i); d > 0 {
					chaosDelay = d
					time.Sleep(d)
				}
			}
			if len(recs) > len(verdicts) {
				verdicts = make([]nids.Verdict, len(recs))
			}
			out := verdicts[:len(recs)]
			sc.detectors[i].DetectBatch(recs, out)
			inferDur := time.Since(inferStart)
			st.infer.ObserveDuration(inferDur)
			attacks := int64(0)
			for j := range out {
				if out[j].IsAttack {
					attacks++
				}
			}
			batchSize := strconv.Itoa(len(recs))
			attrs = append(attrs[:0], "replica", replica, "batch", batchSize)
			if chaosDelay > 0 {
				attrs = append(attrs, "chaos_delay_ms", strconv.FormatInt(chaosDelay.Milliseconds(), 10))
			}
			for _, sg := range live {
				out = out[copy(sg.sp.verdicts[sg.lo:sg.hi], out):]
				// Spans must land before the segment settles: once the
				// request's last segment does, its completion may Finish
				// (seal) the trace.
				tr := sg.sp.trace
				tr.Span("queue_wait", sg.sp.enqueuedAt, pickup.Sub(sg.sp.enqueuedAt))
				tr.Span("batch_assembly", fb.openedAt, fb.flushedAt.Sub(fb.openedAt), "batch", batchSize)
				tr.Span("infer", inferStart, inferDur, attrs...)
				sg.sp.settle(sg.hi-sg.lo, false)
			}
			if sc.gm != nil {
				sc.gm.batches.Add(1)
				sc.gm.batchRecords.Add(int64(len(recs)))
				sc.gm.attacks.Add(attacks)
			}
		}
		sc.b.putSlab(fb.segs)
	}
}

// submit queues sp as one entry and never waits for a verdict: each record
// is then scored, its verdict written, or shed (counted on sp.shed), and
// the worker that settles the last one calls sp.owner.complete — maybe
// before submit returns. Pairing is positional: record i's verdict lands in
// sp.verdicts[i] however the dispatcher cuts the span. A live span's ctx
// bounds the wait for queue space (submitExpired: every record shed).
// submitClosed means the scorer was closing and refused the span (the
// slot was replaced mid-request, or, for a mirror, the queue was full);
// nothing of it was scored, and a live caller retries on the successor.
// Close drains, so every accepted span completes.
func (sc *scorer) submit(sp *span) submitResult {
	n := int64(len(sp.recs))
	sp.left.Store(n)
	sp.shed.Store(0)
	sp.enqueuedAt = time.Now()
	if sc.b.enqueue(sp) {
		return submitAccepted
	}
	// An expired ctx takes precedence over a concurrent close: the request
	// is out of budget either way, and shedding is the deterministic answer.
	if sp.ctx != nil && sp.ctx.Err() != nil {
		sp.shed.Store(n)
		return submitExpired
	}
	return submitClosed
}

// queueLen reports the records queued and not yet batched (for the
// /metrics gauge and the admission controller's watermark check).
func (sc *scorer) queueLen() int { return sc.b.queueLen() }

// close drains the batcher (queued requests are all scored or shed) and
// stops the workers. Safe to call more than once.
func (sc *scorer) close() {
	sc.closeOnce.Do(func() {
		sc.b.close()
		sc.workerWG.Wait()
	})
}

// slotInstance is what the serve layer loads into a registry slot: the
// artifact plus its ready scoring machinery and load metadata. It is the
// registry.Instance the /v2 control plane shuffles between tags.
type slotInstance struct {
	artifact *Artifact
	scorer   *scorer
	loadedAt time.Time
	// wireFP is the artifact schema's wire fingerprint, precomputed at
	// load so the binary transport's per-request check is a compare.
	wireFP uint64
}

var _ registry.Instance = (*slotInstance)(nil)

// Version implements registry.Instance.
func (si *slotInstance) Version() string { return si.artifact.Version() }
