package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config tunes the scoring server.
type Config struct {
	// Replicas is the number of independent detector replicas (and scoring
	// workers) per model slot. Each replica owns its network buffers and
	// lock, so concurrent batches never contend on one mutex. Default 2.
	Replicas int
	// MaxBatch is the dynamic batcher's flush size. Default 32.
	MaxBatch int
	// MaxWait is the dynamic batcher's flush deadline: a batch never waits
	// longer than this for co-travelers. Default 2ms.
	MaxWait time.Duration
	// QueueDepth bounds each slot's batcher intake, in requests; a request
	// that finds it full waits (backpressure), bounded by its deadline —
	// though at the default AdmitWatermark it is answered 429 first.
	// Default 1024.
	QueueDepth int
	// MaxBodyBytes caps every POST request body; larger bodies get 413
	// before the decoder buffers them, so one oversized request cannot
	// exhaust server memory. Default 4 MiB (~2000 NSL-KDD-shaped records
	// per batch).
	MaxBodyBytes int64
	// MirrorOff disables shadow mirroring: by default, every record scored
	// against the live slot is also (asynchronously, best-effort)
	// duplicated onto the shadow slot when one is loaded with a matching
	// feature layout, accumulating per-slot agreement counters.
	MirrorOff bool
	// RequestTimeout is the scoring deadline budget: each scoring request
	// runs under a context that expires this long after the handler
	// accepts it (clients may shorten — never extend — it per request via
	// the X-Timeout-Ms header). Records whose deadline expires while they
	// wait for queue space or a replica are shed, never scored, and the
	// request answers 503 with Retry-After. Default 5s; negative disables
	// the server-side deadline (requests are then bounded only by client
	// disconnect).
	RequestTimeout time.Duration
	// AdmitWatermark is the admission controller's queue-depth threshold:
	// a scoring request whose slot already has this many records queued
	// and not yet batched is fast-failed with 429 and Retry-After instead
	// of parking the handler goroutine behind a saturated batcher. Default
	// QueueDepth (the same number, counted in records); lower it to start
	// shedding earlier. Negative disables admission control.
	AdmitWatermark int
	// Chaos, when non-nil, injects scoring faults (per-replica added
	// latency) into every slot's workers — the fault-injection seam the
	// chaos e2e suite and -chaos-score-delay drive. Leave nil in
	// production.
	Chaos *chaos.Injector
	// TraceCap bounds the in-memory ring of completed request traces served
	// at /debug/traces (oldest overwritten once full; rounded up to a power
	// of two). Default 512.
	TraceCap int
	// Logger receives structured serving-plane logs (slot lifecycle,
	// request errors); nil silences them.
	Logger *obs.Logger
	// Store, when non-nil, makes the control plane durable: every loaded
	// artifact is persisted to the content-addressed store and every slot
	// lifecycle op rewrites the registry state file before its caller is
	// answered, so a restarted process recovers the exact slot→version
	// topology (via Recover). Nil disables all persistence — the
	// pre-durability behavior, and the default for tests and embedded use.
	Store *store.Store

	// mirrorConcurrency bounds how many mirrored requests may be in flight
	// at once; beyond it mirrors are dropped (and counted), never queued —
	// shadow evaluation must not be able to stall live serving. 16, unless
	// an in-package test narrows it.
	mirrorConcurrency int
	// statsInterval is how often per-slot counters are checkpointed into
	// the state file (so a crash rewinds them by at most this much). Only
	// meaningful with Store set. 5s; in-package tests set it negative to
	// disable periodic checkpoints (lifecycle ops still carry them).
	statsInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.mirrorConcurrency <= 0 {
		c.mirrorConcurrency = 16
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.AdmitWatermark == 0 {
		c.AdmitWatermark = c.QueueDepth
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 512
	}
	if c.statsInterval == 0 {
		c.statsInterval = 5 * time.Second
	}
	return c
}

// Server is the HTTP scoring service, a multi-model registry of named
// slots (live, shadow, canary tags) each serving one independently loaded
// artifact through its own batcher and replica shard. The /v2 surface is
// the registry API (list, per-tag load/score, shadow→live promotion,
// rollback).
//
// Construct with New, mount Handler on an http.Server, and shut down in
// order: stop the listener first (http.Server.Shutdown /
// httptest.Server.Close, which wait for in-flight handlers), then Close to
// drain the batchers and workers.
type Server struct {
	cfg       Config
	reg       *registry.Registry
	m         *serverMetrics
	mux       *http.ServeMux
	traces    *obs.TraceRing
	log       *obs.Logger
	started   time.Time
	draining  atomic.Bool
	adminMu   sync.Mutex // serializes load/reload/promote/rollback/unload
	retireWG  sync.WaitGroup
	mirrorWG  sync.WaitGroup
	mirrorSem chan struct{}
	closed    sync.Once

	// Binary transport plane (see wire.go): the open wire listeners and
	// connections, and the WaitGroup ShutdownWire drains.
	wireMu    sync.Mutex
	wireLns   map[net.Listener]struct{}
	wireConns map[*wireServerConn]struct{}
	wireWG    sync.WaitGroup

	// Durable control plane (nil/zero without Config.Store): the CAS the
	// artifacts persist into, readiness (a servable live slot exists), the
	// recovery report when the server was built by Recover, and why its
	// state file was refused (then nothing is written to the state dir).
	store     *store.Store
	ready     atomic.Bool
	recovery  *RecoveryReport
	stateErr  error
	statsStop chan struct{}
	statsWG   sync.WaitGroup
}

// New builds a server with a in its live slot and starts the scoring
// workers. With Config.Store set, New means "start fresh with this
// artifact": the state file is rewritten to hold just this live load
// (use Recover to restore a prior topology).
func New(a *Artifact, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.persistArtifact(a); err != nil {
		return nil, err
	}
	si, err := s.newInstance(a)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		s.store.Retain(a.Version())
	}
	if err := s.reg.Load(registry.Live, si); err != nil {
		si.scorer.close()
		return nil, err
	}
	if err := s.persist(); err != nil {
		s.Close()
		return nil, err
	}
	s.startStatsFlusher()
	s.ready.Store(true)
	s.log.Info("model loaded", "slot", registry.Live, "version", a.Version(), "model", a.ModelName)
	return s, nil
}

// newServer builds everything but the model slots: metrics, routes, and
// the registry with its retire hook. Both New and Recover start here.
func newServer(cfg Config) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		m:         newServerMetrics(),
		mux:       http.NewServeMux(),
		log:       cfg.Logger,
		started:   time.Now(),
		mirrorSem: make(chan struct{}, cfg.mirrorConcurrency),
		store:     cfg.Store,
		traces:    obs.NewTraceRing(cfg.TraceCap),
	}
	s.reg = registry.New(func(inst registry.Instance) {
		// A displaced generation drains in the background: requests that
		// already enqueued onto it still get their verdicts (close flushes
		// the queue), and Close waits for these drains before returning.
		// Its CAS reference drops first (synchronously, so a load that
		// displaces a slot can GC the old artifact before returning).
		si := inst.(*slotInstance)
		s.releaseArtifact(si)
		s.retireWG.Add(1)
		go func() {
			defer s.retireWG.Done()
			si.scorer.close()
		}()
	})

	routes := map[string]http.HandlerFunc{
		"/v2/models":       s.handleModels,
		"/v2/models/":      s.handleModelTag,
		"/v2/load":         s.handleLoad,
		"/v2/detect":       s.handleScore,
		"/v2/detect-batch": s.handleScore,
		"/v2/promote":      s.handlePromote,
		"/v2/rollback":     s.handleRollback,
		"/healthz":         s.handleHealthz,
		"/readyz":          s.handleReadyz,
		"/metrics":         s.handleMetrics,
		"/debug/traces":    s.handleTraces,
	}
	for pattern, h := range routes {
		s.mux.HandleFunc(pattern, h)
	}
	return s, nil
}

// newInstance builds a ready slot instance (replicas + private batcher)
// for a. Nothing is registered: a failing artifact never disturbs serving.
func (s *Server) newInstance(a *Artifact) (*slotInstance, error) {
	sc, err := newScorer(a, s.cfg, s.m)
	if err != nil {
		return nil, err
	}
	return &slotInstance{
		artifact: a,
		scorer:   sc,
		loadedAt: time.Now(),
		wireFP:   wire.Fingerprint(a.Schema),
	}, nil
}

// slot resolves a tag to its loaded instance.
func (s *Server) slot(tag string) (*slotInstance, bool) {
	inst, _, ok := s.reg.Get(tag)
	if !ok {
		return nil, false
	}
	return inst.(*slotInstance), true
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Artifact returns the live slot's artifact.
func (s *Server) Artifact() *Artifact {
	si, ok := s.slot(registry.Live)
	if !ok {
		return nil
	}
	return si.artifact
}

// LoadSlot builds fresh replicas for a and installs them under tag — the
// programmatic form of POST /v2/load. Loading into the live slot requires
// the identical feature layout as the running live model (use the shadow
// slot and Promote for schema evolution); any other tag accepts any valid
// artifact. A displaced live generation is retained for Rollback; any
// displaced generation finishes its in-flight work on its own replicas, so
// no request is ever dropped. An error wrapping errNotDurable means the
// load is serving but the state file did not record it.
func (s *Server) LoadSlot(tag string, a *Artifact) error {
	if err := registry.ValidateTag(tag); err != nil {
		return err
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	// A version already deployed in some slot shares its artifact (and
	// thus its once-lowered plan) instead of lowering a second copy.
	a = s.dedupeArtifact(a)
	if tag == registry.Live {
		if live, ok := s.slot(registry.Live); ok && !a.Schema.SameFeatures(live.artifact.Schema) {
			return fmt.Errorf("serve: artifact's feature layout differs from the live model's (same-shaped swaps only; load into %q and promote for schema changes)", registry.Shadow)
		}
	}
	// Durability ordering: the artifact must be in the CAS (and retained,
	// so a concurrent retire's GC cannot sweep it) before the registry op
	// that references it.
	if err := s.persistArtifact(a); err != nil {
		return err
	}
	si, err := s.newInstance(a)
	if err != nil {
		return err
	}
	if s.store != nil {
		s.store.Retain(a.Version())
	}
	if err := s.reg.Load(tag, si); err != nil {
		if s.store != nil {
			s.store.Release(a.Version())
		}
		return err
	}
	if tag == registry.Live {
		s.ready.Store(true)
	}
	s.m.reloads.Add(1)
	s.log.Info("model loaded", "slot", tag, "version", a.Version(), "model", a.ModelName)
	return s.persistOp()
}

// Promote atomically makes the shadow generation live (retaining the
// displaced live for Rollback) and empties the shadow slot. The promoted
// instance keeps its warm replicas and batcher — no rebuild, no lowering,
// no cold start.
func (s *Server) Promote() error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	inst, err := s.reg.Promote()
	if err != nil {
		return err
	}
	s.ready.Store(true)
	s.log.Info("model promoted", "slot", registry.Live, "version", inst.Version())
	return s.persistOp()
}

// Rollback restores the exact generation (and version) that was live
// before the last promotion or live load. The displaced live becomes the
// new rollback target, so Rollback twice rolls forward again.
func (s *Server) Rollback() error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	inst, err := s.reg.Rollback()
	if err != nil {
		return err
	}
	s.log.Warn("model rolled back", "slot", registry.Live, "version", inst.Version())
	return s.persistOp()
}

// Unload removes the model under tag (not live) and drains its replicas.
func (s *Server) Unload(tag string) error {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if err := s.reg.Unload(tag); err != nil {
		return err
	}
	return s.persistOp()
}

// BeginDrain makes the server answer new scoring requests with 503 while
// in-flight ones complete — the first step of a graceful shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close drains and stops every slot's scoring workers. Call it only after
// the HTTP listener has stopped accepting (so no handler can still
// enqueue); queued records — including mirrored ones — are all scored
// before Close returns. With a store configured, a final stats
// checkpoint lands first.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.draining.Store(true)
		s.ready.Store(false)
		// Wire connections still open (servers that never called
		// ShutdownWire) are force-closed: their in-flight requests must
		// finish before the scorers tear down.
		s.forceCloseWire()
		s.wireWG.Wait()
		s.closeDurability()
		// Mirrors still queued complete on the shadow scorer; wait for
		// them before tearing the scorers down.
		s.mirrorWG.Wait()
		for _, inst := range s.reg.Drain() {
			inst.(*slotInstance).scorer.close()
		}
		s.retireWG.Wait()
	})
}

// traceFor assigns the request its ID — honoring an incoming
// X-Request-Id that validRequestID accepts, generating one otherwise —
// echoes it on the response, and opens the request's trace.
func (s *Server) traceFor(w http.ResponseWriter, r *http.Request) *obs.Trace {
	id := r.Header.Get(obs.RequestIDHeader)
	if !validRequestID(id) {
		id = obs.NewID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	return obs.NewTrace(id, r.URL.Path)
}

// validRequestID reports whether a client's X-Request-Id may be echoed
// and kept: 1–64 bytes of [0-9A-Za-z._:-]. Anything else is replaced, so
// a client cannot pin a header-sized ID in every /debug/traces slot or
// put arbitrary bytes into the logs.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			c == '.' || c == '_' || c == ':' || c == '-') {
			return false
		}
	}
	return true
}

// retryAfter marks an overload rejection as retryable: 429 (admission
// shed) and 503 (deadline shed, drain, swap churn) tell well-behaved
// clients when to come back.
func retryAfter(w http.ResponseWriter, status int) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
}

// RecordJSON is the wire form of one flow record.
type RecordJSON struct {
	Numeric     []float64 `json:"numeric"`
	Categorical []string  `json:"categorical"`
}

// VerdictJSON is the wire form of one detector verdict.
type VerdictJSON struct {
	IsAttack  bool    `json:"is_attack"`
	Class     int     `json:"class"`
	ClassName string  `json:"class_name,omitempty"`
	Score     float64 `json:"score"`
}

type detectBatchRequest struct {
	Records []RecordJSON `json:"records"`
}

type detectBatchResponse struct {
	ModelVersion string        `json:"model_version"`
	Tag          string        `json:"tag"`
	Verdicts     []VerdictJSON `json:"verdicts"`
}

type detectResponse struct {
	ModelVersion string      `json:"model_version"`
	Tag          string      `json:"tag"`
	Verdict      VerdictJSON `json:"verdict"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the request's trace ID so a client error report can
	// be joined against /debug/traces and the server logs.
	RequestID string `json:"request_id,omitempty"`
}

// httpError counts, logs and writes one refused non-scoring request
// (scoring requests are refused through settle).
func (s *Server) httpError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.countError(status, w.Header().Get(obs.RequestIDHeader), msg)
	writeError(w, status, msg)
}

// writeError writes the JSON error body every refused request gets.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg, RequestID: w.Header().Get(obs.RequestIDHeader)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody reads exactly one JSON value from the request body into v,
// capped at cfg.MaxBodyBytes. On error the returned status is the code to
// answer: 413 for an oversized body, 400 for a malformed one or one with
// trailing garbage. The cap is installed via http.MaxBytesReader, which
// also closes the connection on overflow so a huge body is not drained.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	// Reject trailing content after the JSON value: a concatenated second
	// payload silently ignored is a smuggling/confusion hazard. Only a
	// clean EOF is acceptable here.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return http.StatusBadRequest, errors.New("unexpected data after JSON body")
	}
	return 0, nil
}

// toRecords validates the JSON records against the schema and converts
// them.
func toRecords(schema data.Schema, in []RecordJSON) ([]data.Record, error) {
	nNum, nCat := schema.NumNumeric(), len(schema.Categorical)
	out := make([]data.Record, len(in))
	for i, r := range in {
		if len(r.Numeric) != nNum {
			return nil, fmt.Errorf("record %d: %d numeric values, model expects %d", i, len(r.Numeric), nNum)
		}
		if len(r.Categorical) != nCat {
			return nil, fmt.Errorf("record %d: %d categorical values, model expects %d", i, len(r.Categorical), nCat)
		}
		out[i] = data.Record{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	return out, nil
}

func toVerdictsJSON(schema data.Schema, vs []nids.Verdict) []VerdictJSON {
	out := make([]VerdictJSON, len(vs))
	for i, v := range vs {
		vj := VerdictJSON{IsAttack: v.IsAttack, Class: v.Class, Score: v.Score}
		if v.Class >= 0 && v.Class < len(schema.ClassNames) {
			vj.ClassName = schema.ClassNames[v.Class]
		}
		out[i] = vj
	}
	return out
}

// httpScore is one HTTP scoring request as the scoring core sees it: the
// decoded JSON records and slot on the way in, the response writer and the
// endpoint's response shape on the way out.
type httpScore struct {
	w    http.ResponseWriter
	recs []RecordJSON
	// single is the /detect shape (one bare record in, one verdict out);
	// otherwise /detect-batch ({"records": [...]} in, verdicts out).
	single bool
	tag    string // the slot scored, echoed in the response
	st     scoreState
	done   chan struct{} // closed by the completion
}

// handleScore is the one HTTP scoring handler: POST /v2/detect and
// /v2/detect-batch score on ?tag= (default live) and echo the tag.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		retryAfter(w, http.StatusServiceUnavailable)
		s.httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	hs := &httpScore{w: w, single: strings.HasSuffix(r.URL.Path, "/detect"), tag: r.URL.Query().Get("tag"), done: make(chan struct{})}
	if hs.tag == "" {
		hs.tag = registry.Live
	}
	if hs.single {
		s.m.detectRequests.Add(1)
	} else {
		s.m.batchRequests.Add(1)
	}
	tr := s.traceFor(w, r)
	if status, err := hs.decode(s, r); err != nil {
		hs.st.sp.trace, hs.st.status, hs.st.err = tr, status, err
		s.settle(hs)
		return
	}
	tr.Records = len(hs.recs)
	// A malformed X-Timeout-Ms is no hint at all.
	hintMS, err := strconv.ParseInt(r.Header.Get("X-Timeout-Ms"), 10, 64)
	if err != nil {
		hintMS = 0
	}
	s.admit(r.Context(), hintMS, hs.tag, hs, tr)
	// net/http owns this goroutine and the response is written on it, so
	// the handler waits for the completion and settles here.
	<-hs.done
	s.settle(hs)
}

// decode reads the request body into hs.recs.
func (hs *httpScore) decode(s *Server, r *http.Request) (int, error) {
	if hs.single {
		hs.recs = make([]RecordJSON, 1)
		return s.decodeBody(hs.w, r, &hs.recs[0])
	}
	var req detectBatchRequest
	if status, err := s.decodeBody(hs.w, r, &req); err != nil {
		return status, err
	}
	if len(req.Records) == 0 {
		return http.StatusBadRequest, errors.New("empty records")
	}
	hs.recs = req.Records
	return 0, nil
}

func (hs *httpScore) records(si *slotInstance) ([]data.Record, int, error) {
	recs, err := toRecords(si.artifact.Schema, hs.recs)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return recs, 0, nil
}

func (hs *httpScore) state() *scoreState { return &hs.st }

func (hs *httpScore) complete() { close(hs.done) }

func (hs *httpScore) pooled() bool { return false }

func (hs *httpScore) respond(si *slotInstance, verdicts []nids.Verdict) error {
	vj := toVerdictsJSON(si.artifact.Schema, verdicts)
	if hs.single {
		writeJSON(hs.w, detectResponse{ModelVersion: si.artifact.Version(), Tag: hs.tag, Verdict: vj[0]})
	} else {
		writeJSON(hs.w, detectBatchResponse{ModelVersion: si.artifact.Version(), Tag: hs.tag, Verdicts: vj})
	}
	return nil
}

// reject answers an error; 429 (admission shed) and 503 (deadline shed,
// swap churn) carry Retry-After.
func (hs *httpScore) reject(status int, msg string) {
	retryAfter(hs.w, status)
	writeError(hs.w, status, msg)
}

// ModelInfo describes one loaded model slot.
type ModelInfo struct {
	Model   string `json:"model"`
	Version string `json:"version"`
	// Tag is the slot this description refers to.
	Tag string `json:"tag"`
	// PreviousVersion is the retained rollback generation (live slot only).
	PreviousVersion string   `json:"previous_version,omitempty"`
	Features        int      `json:"features"`
	Classes         int      `json:"classes"`
	ClassNames      []string `json:"class_names"`
	Replicas        int      `json:"replicas"`
	MaxBatch        int      `json:"max_batch"`
	MaxWaitMS       float64  `json:"max_wait_ms"`
	LoadedAt        string   `json:"loaded_at"`
}

// SlotStatsJSON is the wire form of a slot's scoring counters.
type SlotStatsJSON struct {
	Records         int64 `json:"records"`
	Attacks         int64 `json:"attacks"`
	Mirrored        int64 `json:"mirrored"`
	MirrorDropped   int64 `json:"mirror_dropped"`
	Agreements      int64 `json:"agreements"`
	Disagreements   int64 `json:"disagreements"`
	Shed            int64 `json:"shed"`
	DeadlineExpired int64 `json:"deadline_expired"`
}

// SlotInfo is one /v2/models entry: the slot's model plus its counters.
type SlotInfo struct {
	ModelInfo
	Stats SlotStatsJSON `json:"stats"`
}

// TransitionJSON is one lifecycle history entry.
type TransitionJSON struct {
	Op      string `json:"op"`
	Tag     string `json:"tag"`
	Version string `json:"version"`
	At      string `json:"at"`
}

// ModelsResponse is the /v2/models body: every occupied slot, the retained
// rollback generation, lifecycle counters, and recent history.
type ModelsResponse struct {
	Slots     []SlotInfo       `json:"slots"`
	Previous  *ModelInfo       `json:"previous,omitempty"`
	Promotes  int64            `json:"promotes"`
	Rollbacks int64            `json:"rollbacks"`
	History   []TransitionJSON `json:"history"`
}

// infoFor renders si as it is mounted under tag.
func (s *Server) infoFor(tag string, si *slotInstance) ModelInfo {
	info := ModelInfo{
		Model:      si.artifact.ModelName,
		Version:    si.artifact.Version(),
		Tag:        tag,
		Features:   si.artifact.Features(),
		Classes:    si.artifact.Classes(),
		ClassNames: si.artifact.Schema.ClassNames,
		Replicas:   s.cfg.Replicas,
		MaxBatch:   s.cfg.MaxBatch,
		MaxWaitMS:  float64(s.cfg.MaxWait) / float64(time.Millisecond),
		LoadedAt:   si.loadedAt.UTC().Format(time.RFC3339),
	}
	if tag == registry.Live {
		info.PreviousVersion = s.reg.PreviousVersion()
	}
	return info
}

// InfoTag returns the description of the model under tag.
func (s *Server) InfoTag(tag string) (ModelInfo, error) {
	si, ok := s.slot(tag)
	if !ok {
		return ModelInfo{}, fmt.Errorf("no model loaded under tag %q", tag)
	}
	return s.infoFor(tag, si), nil
}

// Models returns the full registry listing (the /v2/models body).
func (s *Server) Models() ModelsResponse {
	resp := ModelsResponse{
		Promotes:  s.reg.Promotes(),
		Rollbacks: s.reg.Rollbacks(),
	}
	for _, tag := range s.reg.Tags() {
		si, ok := s.slot(tag)
		if !ok {
			continue // unloaded between Tags() and here
		}
		st := s.reg.StatsFor(tag)
		resp.Slots = append(resp.Slots, SlotInfo{
			ModelInfo: s.infoFor(tag, si),
			Stats: SlotStatsJSON{
				Records:         st.Records.Load(),
				Attacks:         st.Attacks.Load(),
				Mirrored:        st.Mirrored.Load(),
				MirrorDropped:   st.MirrorDropped.Load(),
				Agreements:      st.Agreements.Load(),
				Disagreements:   st.Disagreements.Load(),
				Shed:            st.Shed.Load(),
				DeadlineExpired: st.DeadlineExpired.Load(),
			},
		})
	}
	if si, ok := s.slot(registry.Previous); ok {
		info := s.infoFor(registry.Previous, si)
		resp.Previous = &info
	}
	for _, tr := range s.reg.History() {
		resp.History = append(resp.History, TransitionJSON{
			Op: string(tr.Op), Tag: tr.Tag, Version: tr.Version,
			At: tr.At.UTC().Format(time.RFC3339),
		})
	}
	return resp
}

// handleModels is GET /v2/models: the registry listing.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, s.Models())
}

// handleModelTag is /v2/models/{tag}: GET describes the slot, DELETE
// unloads it (live cannot be unloaded).
func (s *Server) handleModelTag(w http.ResponseWriter, r *http.Request) {
	tag := strings.TrimPrefix(r.URL.Path, "/v2/models/")
	if tag == "" || strings.Contains(tag, "/") {
		s.httpError(w, http.StatusNotFound, "want /v2/models/{tag}")
		return
	}
	switch r.Method {
	case http.MethodGet:
		info, err := s.InfoTag(tag)
		if err != nil {
			s.httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, info)
	case http.MethodDelete:
		if tag == registry.Live {
			s.httpError(w, http.StatusConflict, "cannot unload the live slot")
			return
		}
		if err := s.Unload(tag); err != nil {
			s.httpError(w, opStatus(err, http.StatusNotFound), "%v", err)
			return
		}
		writeJSON(w, s.Models())
	default:
		s.httpError(w, http.StatusMethodNotAllowed, "GET or DELETE required")
	}
}

type loadRequest struct {
	Path string `json:"path"`
	Tag  string `json:"tag"`
}

// handleLoad is POST /v2/load?tag= (or {"path": ..., "tag": ...}): load an
// artifact file into a slot. The tag defaults to shadow — the staging slot
// gated promotion operates on.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req loadRequest
	if status, err := s.decodeBody(w, r, &req); err != nil {
		s.httpError(w, status, "%v", err)
		return
	}
	if req.Path == "" {
		s.httpError(w, http.StatusBadRequest, "body must be {\"path\": \"artifact file\"}")
		return
	}
	tag := req.Tag
	if qt := r.URL.Query().Get("tag"); qt != "" {
		tag = qt
	}
	if tag == "" {
		tag = registry.Shadow
	}
	if err := registry.ValidateTag(tag); err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, err := LoadArtifactFile(req.Path)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "load artifact: %v", err)
		return
	}
	if err := s.LoadSlot(tag, a); err != nil {
		s.httpError(w, opStatus(err, http.StatusConflict), "load %q: %v", tag, err)
		return
	}
	info, err := s.InfoTag(tag)
	if err != nil {
		// The slot was displaced between load and read-back; report the
		// registry state rather than failing the successful load.
		writeJSON(w, s.Models())
		return
	}
	writeJSON(w, info)
}

// handlePromote is POST /v2/promote: shadow becomes live atomically; the
// displaced live is retained for rollback.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.Promote(); err != nil {
		s.httpError(w, opStatus(err, http.StatusConflict), "%v", err)
		return
	}
	info, _ := s.InfoTag(registry.Live)
	writeJSON(w, info)
}

// handleRollback is POST /v2/rollback: restore the generation displaced by
// the last promotion or live load.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.Rollback(); err != nil {
		s.httpError(w, opStatus(err, http.StatusConflict), "%v", err)
		return
	}
	info, _ := s.InfoTag(registry.Live)
	writeJSON(w, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	model, version := "", ""
	if si, ok := s.slot(registry.Live); ok {
		model, version = si.artifact.ModelName, si.artifact.Version()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Status  string `json:"status"`
		Model   string `json:"model"`
		Version string `json:"version"`
	}{status, model, version})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var slots []slotMetrics
	queueDepth := 0
	for _, tag := range s.reg.Tags() {
		si, ok := s.slot(tag)
		if !ok {
			continue
		}
		q := si.scorer.queueLen()
		queueDepth += q
		slots = append(slots, slotMetrics{
			tag:     tag,
			model:   si.artifact.ModelName,
			version: si.artifact.Version(),
			queue:   q,
			stats:   s.reg.StatsFor(tag),
			stages:  si.scorer.stages,
		})
	}
	var previous *Artifact
	if si, ok := s.slot(registry.Previous); ok {
		previous = si.artifact
	}
	var storeStats *store.Stats
	if s.store != nil {
		st := s.store.Stats()
		storeStats = &st
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.writeProm(w, promSnapshot{
		queueDepth: queueDepth,
		slots:      slots,
		promotes:   s.reg.Promotes(),
		rollbacks:  s.reg.Rollbacks(),
		previous:   previous,
		started:    s.started,
		store:      storeStats,
		recovery:   s.recovery,
	})
}

// tracesResponse is the /debug/traces body.
type tracesResponse struct {
	Count  int          `json:"count"`
	Traces []*obs.Trace `json:"traces"`
}

// handleTraces is GET /debug/traces: the ring of completed request traces
// as JSON, newest first. Query parameters: ?slowest=N returns the N
// slowest held traces instead of the newest; ?errors=1 keeps only failed
// requests (status >= 400); ?slot= filters by the serving slot;
// ?limit=N caps the response size (default 64).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	traces := s.traces.Snapshot()
	q := r.URL.Query()
	if slot := q.Get("slot"); slot != "" {
		traces = filterTraces(traces, func(t *obs.Trace) bool { return t.Slot == slot })
	}
	if e := q.Get("errors"); e == "1" || e == "true" {
		traces = filterTraces(traces, func(t *obs.Trace) bool { return t.Status >= 400 || t.Error != "" })
	}
	limit := 64
	if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
		limit = n
	}
	if n, err := strconv.Atoi(q.Get("slowest")); err == nil && n > 0 {
		sort.SliceStable(traces, func(i, j int) bool { return traces[i].DurUS > traces[j].DurUS })
		limit = n
	}
	if len(traces) > limit {
		traces = traces[:limit]
	}
	writeJSON(w, tracesResponse{Count: len(traces), Traces: traces})
}

func filterTraces(in []*obs.Trace, keep func(*obs.Trace) bool) []*obs.Trace {
	out := in[:0:0]
	for _, t := range in {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}
