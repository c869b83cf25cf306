package serve

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/registry"
)

// scorer is one slot's scoring machinery: sharded detector replicas fed by
// a private dynamic batcher. Every slot in the model registry owns its
// own scorer, so a request is validated, batched, and scored entirely
// within one model generation — promotions and rollbacks re-point tags at
// instances, they never tear a request across generations. A scorer is
// immutable after construction; retiring a slot closes its scorer, which
// drains the queue (every accepted record is scored or, past its
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
	// submitOK: every record was scored and its verdict written.
	submitOK submitResult = iota
	// submitClosed: the slot was swapped mid-request; the caller must
	// re-resolve the tag and retry on the successor generation.
	submitClosed
	// submitExpired: the request's deadline ran out before every record
	// could be scored; at least one record was shed (tallied on the
	// caller's expired counter) and the verdicts must be discarded.
	submitExpired
)

// newScorer builds the replicas for a — each a compiled float32 inference
// engine over the artifact's shared plan — and starts the scoring workers.
// gm (may be nil in tests) receives the server-wide batch aggregates;
// per-slot counters are the handlers' business — they know which tag a
// request resolved to, the scorer deliberately does not (a promotion
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

// traceAgg accumulates one request's slice of a batch so the worker can
// append one span set per (trace, batch) instead of one per record.
type traceAgg struct {
	tr       *obs.Trace
	firstEnq time.Time
}

// worker is one replica's scoring loop: it pulls flushed batches, sheds
// the records whose deadline expired while they queued, scores the rest
// on its own replica, and fans verdicts back out to the originating
// requests. Shedding happens here — at the last moment before the
// network pass — because that is when queueing delay has actually been
// paid: a record that waited out its budget gets a shed tally instead of
// a stale verdict nobody is waiting for. The worker also feeds the
// queue_wait/batch_assembly/infer histograms and appends the matching
// spans to each request's trace — before releasing the request's
// WaitGroup, so a trace is complete by the time its handler can finish it.
//
//pelican:noalloc
func (sc *scorer) worker(i int) {
	defer sc.workerWG.Done()
	replica := strconv.Itoa(i)
	recs := make([]*data.Record, 0, sc.maxBatch)
	live := make([]*item, 0, sc.maxBatch)
	verdicts := make([]nids.Verdict, sc.maxBatch)
	aggs := make([]traceAgg, 0, 8)
	// attrs is the infer span's attribute list, identical for every trace
	// in a batch: built once per batch into this recycled buffer instead
	// of a fresh slice literal per trace.
	attrs := make([]string, 0, 6)
	for fb := range sc.b.batches {
		batch := fb.items
		st := sc.stages
		pickup := time.Now()
		st.assembly.ObserveDuration(fb.flushedAt.Sub(fb.openedAt))
		st.batchSize.Observe(float64(len(batch)))
		recs, live, aggs = recs[:0], live[:0], aggs[:0]
		for j := range batch {
			it := &batch[j]
			if it.shed() {
				it.expired.Add(1)
				it.wg.Done()
				continue
			}
			recs = append(recs, it.rec)
			live = append(live, it)
			st.queueWait.ObserveDuration(pickup.Sub(it.enqueuedAt))
			if it.trace != nil {
				found := false
				for k := range aggs {
					if aggs[k].tr == it.trace {
						if it.enqueuedAt.Before(aggs[k].firstEnq) {
							aggs[k].firstEnq = it.enqueuedAt
						}
						found = true
						break
					}
				}
				if !found {
					aggs = append(aggs, traceAgg{tr: it.trace, firstEnq: it.enqueuedAt})
				}
			}
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
			for j, it := range live {
				*it.out = out[j]
				if out[j].IsAttack {
					attacks++
				}
			}
			// Spans must land before the WaitGroup releases: once every
			// record is Done the handler may Finish (seal) the trace.
			batchSize := strconv.Itoa(len(recs))
			attrs = append(attrs[:0], "replica", replica, "batch", batchSize)
			if chaosDelay > 0 {
				attrs = append(attrs, "chaos_delay_ms", strconv.FormatInt(chaosDelay.Milliseconds(), 10))
			}
			for k := range aggs {
				a := &aggs[k]
				a.tr.Span("queue_wait", a.firstEnq, pickup.Sub(a.firstEnq))
				a.tr.Span("batch_assembly", fb.openedAt, fb.flushedAt.Sub(fb.openedAt), "batch", batchSize)
				a.tr.Span("infer", inferStart, inferDur, attrs...)
			}
			for _, it := range live {
				it.wg.Done()
			}
			if sc.gm != nil {
				sc.gm.batches.Add(1)
				sc.gm.batchRecords.Add(int64(len(recs)))
				sc.gm.attacks.Add(attacks)
			}
		}
		sc.b.putSlab(batch)
	}
}

// score funnels a request's records through the batcher and blocks until
// every verdict is written (or the record is shed). Pairing is
// positional: item i carries a pointer to verdicts[i], so however the
// dispatcher cuts batches, each record gets its own verdict. ctx bounds
// the whole interaction: a deadline that expires while records wait —
// for queue space or, once queued, for a replica — sheds them (tallied
// on expired) and returns submitExpired. submitClosed means the scorer
// was closed before every record could be enqueued (the slot was
// replaced mid-request); the caller re-resolves the slot and retries on
// the successor. Records accepted before a close are still scored or
// shed (close drains), so the wait below never hangs. tr, when non-nil,
// receives the stage spans the workers record for this request.
func (sc *scorer) score(ctx context.Context, recs []data.Record, verdicts []nids.Verdict, expired *atomic.Int64, tr *obs.Trace) submitResult {
	return sc.submit(ctx, recs, verdicts, expired, true, tr)
}

// tryScore is score for the mirroring path: enqueues never block (a full
// shadow queue drops the mirror rather than slowing anything), records
// carry no deadline, and a partial enqueue counts as a drop — the caller
// must not compare verdicts from a half-scored mirror.
func (sc *scorer) tryScore(recs []data.Record, verdicts []nids.Verdict, tr *obs.Trace) bool {
	return sc.submit(nil, recs, verdicts, nil, false, tr) == submitOK
}

func (sc *scorer) submit(ctx context.Context, recs []data.Record, verdicts []nids.Verdict, expired *atomic.Int64, block bool, tr *obs.Trace) submitResult {
	var wg sync.WaitGroup
	wg.Add(len(recs))
	enqueued := len(recs)
	res := submitOK
	enqAt := time.Now()
	for i := range recs {
		if !sc.b.enqueue(item{rec: &recs[i], out: &verdicts[i], wg: &wg, ctx: ctx, expired: expired, enqueuedAt: enqAt, trace: tr}, block) {
			// The unenqueued tail must release its WaitGroup slots, and the
			// already-enqueued head must be waited out (its verdict writers
			// hold pointers into verdicts) before the caller may retry or
			// answer. An expired ctx takes precedence over a concurrent
			// close: the request is out of budget either way, and shedding
			// is the deterministic answer.
			enqueued = i
			if ctx != nil && ctx.Err() != nil {
				res = submitExpired
				expired.Add(int64(len(recs) - i))
			} else {
				res = submitClosed
			}
			break
		}
	}
	for i := enqueued; i < len(recs); i++ {
		wg.Done()
	}
	wg.Wait()
	if res == submitOK && expired != nil && expired.Load() > 0 {
		// Some queued records were shed by a worker: the request missed its
		// deadline even though every record was accepted.
		res = submitExpired
	}
	return res
}

// queueLen reports the batcher queue depth (for the /metrics gauge and
// the admission controller's watermark check).
func (sc *scorer) queueLen() int { return sc.b.queueLen() }

// close drains the batcher (queued records are all scored or shed) and
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
