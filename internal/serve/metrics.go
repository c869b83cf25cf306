package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
)

// serverMetrics holds the server-wide counters exported at /metrics.
// Per-slot counters live in the model registry (registry.Stats), per-slot
// stage histograms on each slot's scorer; both are rendered with
// {slot=...} labels.
type serverMetrics struct {
	detectRequests atomic.Int64
	batchRequests  atomic.Int64
	records        atomic.Int64
	batches        atomic.Int64
	batchRecords   atomic.Int64
	attacks        atomic.Int64
	// requestErrors4xx counts client-side rejections (malformed bodies,
	// schema mismatches, unknown tags, deliberate 429 shedding);
	// requestErrors5xx counts server-side failures and overload 503s.
	// Split so dashboards never conflate deliberate shedding with broken
	// clients or broken servers.
	requestErrors4xx atomic.Int64
	requestErrors5xx atomic.Int64
	reloads          atomic.Int64
	// shed counts records fast-failed by the admission controller (429);
	// deadlineExpired counts records shed after their request deadline ran
	// out while queued (503). Server-wide aggregates of the per-slot
	// registry.Stats counters.
	shed            atomic.Int64
	deadlineExpired atomic.Int64
	latency         *obs.Histogram
	// Binary transport plane (wire.go): open connections, frames and
	// bytes by direction, and framing/payload protocol violations.
	wireConnections atomic.Int64
	wireFramesIn    atomic.Int64
	wireFramesOut   atomic.Int64
	wireBytesIn     atomic.Int64
	wireBytesOut    atomic.Int64
	wireProtoErrors atomic.Int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{latency: obs.NewHistogram(obs.LatencyBuckets)}
}

// stageMetrics are one slot's per-stage latency decomposition: fixed-bucket
// histograms for each stage of the request path plus the realized batch
// size distribution. They live on the slot's scorer, so — like the queue
// gauge — they travel with the generation through promotions and are
// rendered under whichever tag currently serves it.
type stageMetrics struct {
	queueWait *obs.Histogram // enqueue → worker pickup (includes assembly + worker wait)
	assembly  *obs.Histogram // batch open (first record at dispatcher) → flush
	infer     *obs.Histogram // replica engine run, per batch (includes injected chaos delay)
	encode    *obs.Histogram // response JSON encode, per request
	batchSize *obs.Histogram // records per flushed batch
}

func newStageMetrics() *stageMetrics {
	return &stageMetrics{
		queueWait: obs.NewHistogram(obs.StageBuckets),
		assembly:  obs.NewHistogram(obs.StageBuckets),
		infer:     obs.NewHistogram(obs.StageBuckets),
		encode:    obs.NewHistogram(obs.StageBuckets),
		batchSize: obs.NewHistogram(obs.BatchSizeBuckets),
	}
}

// slotMetrics is one registry slot's exposition snapshot.
type slotMetrics struct {
	tag     string
	model   string
	version string
	queue   int
	stats   *registry.Stats
	stages  *stageMetrics
}

// promSnapshot carries the registry-side state /metrics renders alongside
// the server-wide counters.
type promSnapshot struct {
	queueDepth int
	slots      []slotMetrics
	promotes   int64
	rollbacks  int64
	// previous is the retained rollback generation's artifact (nil if none).
	previous *Artifact
	started  time.Time
	// store holds the artifact-store counters (nil without Config.Store —
	// the families are then absent, not zero); recovery is non-nil only
	// on a server built by Recover.
	store    *store.Stats
	recovery *RecoveryReport
}

// writeProm renders the metrics in the Prometheus text exposition format.
func (m *serverMetrics) writeProm(w io.Writer, snap promSnapshot) {
	counter := func(name, help string, v int64) {
		obs.WritePromHeader(w, name, "counter", help)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter("pelican_serve_detect_requests_total", "Requests to /v2/detect.", m.detectRequests.Load())
	counter("pelican_serve_detect_batch_requests_total", "Requests to /v2/detect-batch.", m.batchRequests.Load())
	counter("pelican_serve_records_total", "Flow records scored for requests (mirrored copies excluded).", m.records.Load())
	counter("pelican_serve_batches_total", "Dynamic batches flushed to a replica (all slots).", m.batches.Load())
	counter("pelican_serve_batch_records_total", "Records carried by flushed batches (all slots).", m.batchRecords.Load())
	counter("pelican_serve_attack_verdicts_total", "Verdicts flagged as attacks (all slots).", m.attacks.Load())

	obs.WritePromHeader(w, "pelican_serve_request_errors_total", "counter",
		"Requests rejected, by status class: 4xx covers client errors and deliberate 429 shedding, 5xx server failures and overload 503s.")
	fmt.Fprintf(w, "pelican_serve_request_errors_total{code=\"4xx\"} %d\n", m.requestErrors4xx.Load())
	fmt.Fprintf(w, "pelican_serve_request_errors_total{code=\"5xx\"} %d\n", m.requestErrors5xx.Load())

	counter("pelican_serve_reloads_total", "Successful model loads into any slot after startup.", m.reloads.Load())
	counter("pelican_serve_promotes_total", "Shadow-to-live promotions.", snap.promotes)
	counter("pelican_serve_rollbacks_total", "Live rollbacks to the retained previous generation.", snap.rollbacks)
	counter("pelican_serve_shed_total", "Records fast-failed (429) by the admission controller, all slots.", m.shed.Load())
	counter("pelican_serve_deadline_expired_total", "Records shed (503) after their deadline expired while queued, all slots.", m.deadlineExpired.Load())

	obs.WritePromHeader(w, "pelican_serve_queue_depth", "gauge", "Records waiting across all slot batcher queues.")
	fmt.Fprintf(w, "pelican_serve_queue_depth %d\n", snap.queueDepth)

	obs.WritePromHeader(w, "pelican_wire_connections", "gauge", "Open binary-transport connections.")
	fmt.Fprintf(w, "pelican_wire_connections %d\n", m.wireConnections.Load())
	obs.WritePromHeader(w, "pelican_wire_frames_total", "counter", "Wire frames by direction (in = read from clients, out = written to clients).")
	fmt.Fprintf(w, "pelican_wire_frames_total{dir=\"in\"} %d\n", m.wireFramesIn.Load())
	fmt.Fprintf(w, "pelican_wire_frames_total{dir=\"out\"} %d\n", m.wireFramesOut.Load())
	obs.WritePromHeader(w, "pelican_wire_bytes_total", "counter", "Wire frame bytes (headers + payloads) by direction.")
	fmt.Fprintf(w, "pelican_wire_bytes_total{dir=\"in\"} %d\n", m.wireBytesIn.Load())
	fmt.Fprintf(w, "pelican_wire_bytes_total{dir=\"out\"} %d\n", m.wireBytesOut.Load())
	counter("pelican_wire_protocol_errors_total", "Framing/payload protocol violations; each closes its connection.", m.wireProtoErrors.Load())

	obs.WritePromHeader(w, "pelican_serve_model_info", "gauge", "Loaded model per registry slot (value is always 1).")
	for _, sl := range snap.slots {
		fmt.Fprintf(w, "pelican_serve_model_info{slot=%q,model=%q,version=%q} 1\n", sl.tag, sl.model, sl.version)
	}
	if p := snap.previous; p != nil {
		fmt.Fprintf(w, "pelican_serve_model_info{slot=%q,model=%q,version=%q} 1\n", registry.Previous, p.ModelName, p.Version())
	}

	slotCounter := func(name, help string, load func(*registry.Stats) int64) {
		obs.WritePromHeader(w, name, "counter", help)
		for _, sl := range snap.slots {
			fmt.Fprintf(w, "%s{slot=%q,version=%q} %d\n", name, sl.tag, sl.version, load(sl.stats))
		}
	}
	slotCounter("pelican_serve_slot_records_total", "Flow records scored by the slot (requests plus mirrors).",
		func(st *registry.Stats) int64 { return st.Records.Load() })
	slotCounter("pelican_serve_slot_attack_verdicts_total", "Attack verdicts by the slot — the per-slot detection-rate proxy.",
		func(st *registry.Stats) int64 { return st.Attacks.Load() })
	slotCounter("pelican_serve_slot_mirrored_total", "Live records mirrored onto the slot.",
		func(st *registry.Stats) int64 { return st.Mirrored.Load() })
	slotCounter("pelican_serve_slot_mirror_dropped_total", "Mirrors dropped (backpressure, layout mismatch, or mid-swap).",
		func(st *registry.Stats) int64 { return st.MirrorDropped.Load() })
	slotCounter("pelican_serve_slot_agreements_total", "Mirrored verdicts agreeing with live.",
		func(st *registry.Stats) int64 { return st.Agreements.Load() })
	slotCounter("pelican_serve_slot_disagreements_total", "Mirrored verdicts disagreeing with live.",
		func(st *registry.Stats) int64 { return st.Disagreements.Load() })
	slotCounter("pelican_serve_slot_shed_total", "Records fast-failed (429) by the slot's admission watermark.",
		func(st *registry.Stats) int64 { return st.Shed.Load() })
	slotCounter("pelican_serve_slot_deadline_expired_total", "Records shed (503) after their deadline expired in the slot's queue.",
		func(st *registry.Stats) int64 { return st.DeadlineExpired.Load() })

	obs.WritePromHeader(w, "pelican_serve_slot_queue_depth", "gauge", "Records waiting in the slot's batcher queue.")
	for _, sl := range snap.slots {
		fmt.Fprintf(w, "pelican_serve_slot_queue_depth{slot=%q} %d\n", sl.tag, sl.queue)
	}

	obs.WritePromHeader(w, "pelican_serve_request_seconds", "histogram", "Scoring request latency.")
	m.latency.WriteProm(w, "pelican_serve_request_seconds", "")

	// Stage-level latency decomposition, per slot.
	stageHist := func(name, help string, pick func(*stageMetrics) *obs.Histogram) {
		obs.WritePromHeader(w, name, "histogram", help)
		for _, sl := range snap.slots {
			pick(sl.stages).WriteProm(w, name, fmt.Sprintf("slot=%q", sl.tag))
		}
	}
	stageHist("pelican_serve_queue_wait_seconds",
		"Stage: record enqueue to worker pickup (queueing, co-traveler wait, and replica wait).",
		func(st *stageMetrics) *obs.Histogram { return st.queueWait })
	stageHist("pelican_serve_batch_assembly_seconds",
		"Stage: batch open (first record at the dispatcher) to flush.",
		func(st *stageMetrics) *obs.Histogram { return st.assembly })
	stageHist("pelican_serve_infer_seconds",
		"Stage: replica engine run per flushed batch (includes any injected chaos delay).",
		func(st *stageMetrics) *obs.Histogram { return st.infer })
	stageHist("pelican_serve_encode_seconds",
		"Stage: response JSON encode per request.",
		func(st *stageMetrics) *obs.Histogram { return st.encode })
	stageHist("pelican_serve_batch_size",
		"Records per flushed batch.",
		func(st *stageMetrics) *obs.Histogram { return st.batchSize })

	// Durable-control-plane families: present only when the server runs
	// with an artifact store (and, for the recovery gauge, only after a
	// recovery actually happened).
	if snap.store != nil {
		obs.WritePromHeader(w, "pelican_store_artifacts", "gauge", "Verified artifacts resident in the content-addressed store.")
		fmt.Fprintf(w, "pelican_store_artifacts %d\n", snap.store.Artifacts)
		obs.WritePromHeader(w, "pelican_store_bytes", "gauge", "Total bytes of resident artifacts in the content-addressed store.")
		fmt.Fprintf(w, "pelican_store_bytes %d\n", snap.store.Bytes)
		counter("pelican_store_gc_total", "Unreferenced artifacts deleted by store GC since process start.", snap.store.GCTotal)
		counter("pelican_store_quarantined_total", "Artifacts quarantined after failing verification since process start.", snap.store.Quarantined)
	}
	if snap.recovery != nil {
		obs.WritePromHeader(w, "pelican_recovery_duration_seconds", "gauge", "Wall time of the startup state load and artifact re-lowering.")
		fmt.Fprintf(w, "pelican_recovery_duration_seconds %.6f\n", snap.recovery.Duration.Seconds())
	}

	obs.WriteRuntimeProm(w, snap.started)
}
