package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// DefaultClientTimeout bounds every request made through a Client that
// did not supply its own *http.Client. A scoring client must never hang
// forever on a stalled server: a bounded failure is recoverable (retry,
// breaker, drop the flow), an unbounded wait wedges the whole pipeline.
const DefaultClientTimeout = 10 * time.Second

// defaultHTTPClient is shared by every Client whose HTTP field is nil.
// Its transport is tuned for a scoring client's traffic shape — many
// concurrent requests to one or two hosts: http.DefaultTransport keeps
// only 2 idle connections per host, so a load generator churns through
// ephemeral connections (handshakes, TIME_WAIT) instead of reusing
// keep-alive ones. That would also handicap the HTTP side of any
// HTTP-vs-wire comparison with connection-setup cost the binary plane
// (persistent connections) never pays.
var defaultHTTPClient = &http.Client{
	Timeout: DefaultClientTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     90 * time.Second,
		// Keep-alives stay enabled (the zero value): every scoring
		// request after the first reuses a warm connection.
		DisableKeepAlives: false,
	},
}

// Client is a typed HTTP client for the scoring server: the consumer side
// of the /v2 API for Go callers (load generators, adaptation sidecars,
// tests). It is safe for concurrent use.
//
// Resilience: requests time out after DefaultClientTimeout (override by
// supplying HTTP — set Timeout: 0 there to opt out entirely); idempotent
// calls (scoring and every GET) are retried with jittered exponential
// backoff on transport errors and retryable statuses (429, 500, 502,
// 503, 504), honoring Retry-After; and an optional circuit Breaker
// fast-fails calls while the server is down so a wedged scoring plane
// degrades to counted errors instead of piled-up goroutines — the policy
// and attempt loop internal/resilience defines once for this client,
// wire.Client and the adaptation loop's publisher. Mutating control-plane
// calls (load, promote, rollback) are never retried — promote twice is not
// promote once.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client; nil uses a shared client with
	// DefaultClientTimeout. Supply your own to change the timeout, the
	// transport (e.g. chaos.Transport), or connection pooling.
	HTTP *http.Client
	// MaxAttempts caps total tries per idempotent call (first try +
	// retries). 0 means 3; 1 disables retries.
	MaxAttempts int
	// RetryBase is the first backoff delay; each retry doubles it (±50%
	// jitter, capped at 2s, floored at a server-sent Retry-After). 0 means
	// 50ms.
	RetryBase time.Duration
	// Breaker, when non-nil, guards every call: while open, calls fail
	// immediately with resilience.ErrBreakerOpen. Transport errors and
	// hard 5xx statuses (500/502/504) count as breaker failures; 429 and
	// 503 are overload shedding — the server is alive and asking for
	// backoff, so they are retried but never trip the breaker.
	Breaker *resilience.Breaker

	// lastRequestID holds the X-Request-Id echoed by the most recent
	// response (string). Every logical call sends one generated ID, shared
	// across its retries, so all attempts correlate to one trace lineage.
	lastRequestID atomic.Value
}

// LastRequestID returns the X-Request-Id the server echoed on the most
// recent response ("" before the first) — the handle for joining a
// client-observed outcome against the server's /debug/traces and logs.
func (c *Client) LastRequestID() string {
	id, _ := c.lastRequestID.Load().(string)
	return id
}

// NewClient builds a client for the server at base.
func NewClient(base string) *Client { return &Client{BaseURL: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// statusError is a non-2xx response, carrying what the retry policy
// needs: the status and any server-requested backoff.
type statusError struct {
	path       string
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("serve: %s: %d: %s", e.path, e.status, e.msg)
	}
	return fmt.Sprintf("serve: %s: status %d", e.path, e.status)
}

// StatusCode and RetryAfter are what internal/resilience classifies and
// floors its backoff on.
func (e *statusError) StatusCode() int           { return e.status }
func (e *statusError) RetryAfter() time.Duration { return e.retryAfter }

// call performs the request through the shared attempt loop: idempotent
// calls retry on retryable failures, mutating ones go out exactly once,
// and the Breaker gates every attempt. A request that cannot be built is
// the caller's bug, returned before the breaker sees it.
func (c *Client) call(method, path string, body []byte, out any, idempotent bool) error {
	req, err := http.NewRequest(method, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// One ID per logical call: retried attempts reuse it, so however many
	// times the request lands, the server's traces share one request ID.
	req.Header.Set(obs.RequestIDHeader, obs.NewID())
	attempts := 1
	if idempotent {
		attempts = c.MaxAttempts
	}
	tries := 0
	return resilience.Retry(attempts, c.RetryBase, resilience.Retryable, func() error {
		r := req
		if tries++; tries > 1 {
			// A retry goes out on a fresh copy with a rewound body: the
			// transport may still hold the previous attempt's request.
			r = req.Clone(req.Context())
			r.Body, _ = req.GetBody()
		}
		return c.Breaker.Call(func() error { return c.once(r, path, out) })
	})
}

// once performs one HTTP exchange. A nil out discards the response body.
func (c *Client) once(req *http.Request, path string, out any) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if id := resp.Header.Get(obs.RequestIDHeader); id != "" {
		c.lastRequestID.Store(id)
	}
	if resp.StatusCode/100 != 2 {
		se := &statusError{path: path, status: resp.StatusCode}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			se.retryAfter = time.Duration(secs) * time.Second
		}
		var e errorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			se.msg = e.Error
		}
		return se
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts body as JSON and decodes the response into out,
// translating non-2xx statuses into errors carrying the server's message.
// Mutating control-plane calls post exactly once; idempotent ones —
// scoring calls, pure functions of their payload — retry.
func (c *Client) postJSON(path string, body, out any, idempotent bool) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, path, b, out, idempotent)
}

// getJSON fetches path (with retries; GETs are idempotent) and decodes
// the response into out.
func (c *Client) getJSON(path string, out any) error {
	return c.call(http.MethodGet, path, nil, out, true)
}

// tagQuery renders the ?tag= suffix ("" means the server default, live).
func tagQuery(tag string) string {
	if tag == "" {
		return ""
	}
	return "?tag=" + url.QueryEscape(tag)
}

// Models fetches the full /v2 registry listing: every occupied slot with
// its per-slot counters, the retained rollback generation, and the
// lifecycle history.
func (c *Client) Models() (ModelsResponse, error) {
	var resp ModelsResponse
	err := c.getJSON("/v2/models", &resp)
	return resp, err
}

// ModelTag fetches the description of the model under tag.
func (c *Client) ModelTag(tag string) (ModelInfo, error) {
	var info ModelInfo
	err := c.getJSON("/v2/models/"+url.PathEscape(tag), &info)
	return info, err
}

// Score scores the records against the live slot and returns the verdicts
// plus the version of the model generation that answered.
func (c *Client) Score(recs []*data.Record) ([]nids.Verdict, string, error) {
	return c.ScoreTag("", recs)
}

// ScoreTag scores the records against the model under tag via
// /v2/detect-batch ("" means live).
func (c *Client) ScoreTag(tag string, recs []*data.Record) ([]nids.Verdict, string, error) {
	req := detectBatchRequest{Records: make([]RecordJSON, len(recs))}
	for i, r := range recs {
		req.Records[i] = RecordJSON{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	var resp detectBatchResponse
	if err := c.postJSON("/v2/detect-batch"+tagQuery(tag), req, &resp, true); err != nil {
		return nil, "", err
	}
	if len(resp.Verdicts) != len(recs) {
		return nil, resp.ModelVersion, fmt.Errorf("serve: %d verdicts for %d records", len(resp.Verdicts), len(recs))
	}
	out := make([]nids.Verdict, len(recs))
	for i, v := range resp.Verdicts {
		out[i] = nids.Verdict{IsAttack: v.IsAttack, Class: v.Class, Score: v.Score}
	}
	return out, resp.ModelVersion, nil
}

// LoadTag asks the server to load the artifact at path (a path on the
// server's filesystem) into the slot named tag ("" means shadow, the
// staging slot) and returns the slot's new model info.
func (c *Client) LoadTag(path, tag string) (ModelInfo, error) {
	var info ModelInfo
	err := c.postJSON("/v2/load"+tagQuery(tag), loadRequest{Path: path, Tag: tag}, &info, false)
	return info, err
}

// Promote asks the server to atomically make the shadow generation live
// (retaining the displaced live for Rollback) and returns the new live
// model info.
func (c *Client) Promote() (ModelInfo, error) {
	var info ModelInfo
	err := c.postJSON("/v2/promote", struct{}{}, &info, false)
	return info, err
}

// Rollback asks the server to restore the generation displaced by the last
// promotion or live load and returns the restored live model info.
func (c *Client) Rollback() (ModelInfo, error) {
	var info ModelInfo
	err := c.postJSON("/v2/rollback", struct{}{}, &info, false)
	return info, err
}

// RemoteDetector adapts a Client to nids.BatchDetector, so a live pipeline
// can score flows against a remote scoring server instead of an in-process
// network — the deployment shape where an adaptation sidecar watches
// exactly the model generation production traffic is scored by. Failed
// requests — including calls fast-failed by the client's circuit breaker —
// yield verdicts marked Failed (excluded from pipeline detection counters
// and ignored by the adaptation loop's monitors, so a server hiccup can
// neither skew DR/FAR nor spuriously trip a retrain) and are tallied in
// Errors: a dead or overloaded server degrades the pipeline to dropped
// flows with a counter, never to a hang.
type RemoteDetector struct {
	Client *Client
	// Tag pins scoring to one registry slot ("shadow", a canary tag, ...);
	// empty means live. A pipeline per slot is how competing detectors run
	// side by side over the same traffic.
	Tag string

	errs atomic.Int64
}

var _ nids.BatchDetector = (*RemoteDetector)(nil)

// Name implements nids.Detector.
func (d *RemoteDetector) Name() string {
	if d.Tag != "" {
		return "remote:" + d.Client.BaseURL + "#" + d.Tag
	}
	return "remote:" + d.Client.BaseURL
}

// Detect implements nids.Detector.
func (d *RemoteDetector) Detect(rec *data.Record) nids.Verdict {
	var v [1]nids.Verdict
	d.DetectBatch([]*data.Record{rec}, v[:])
	return v[0]
}

// DetectBatch implements nids.BatchDetector over one /v2/detect-batch call.
func (d *RemoteDetector) DetectBatch(recs []*data.Record, verdicts []nids.Verdict) {
	got, _, err := d.Client.ScoreTag(d.Tag, recs)
	if err != nil {
		d.errs.Add(1)
		for i := range verdicts[:len(recs)] {
			verdicts[i] = nids.Verdict{Failed: true}
		}
		return
	}
	copy(verdicts, got)
}

// Errors returns how many scoring requests have failed.
func (d *RemoteDetector) Errors() int64 { return d.errs.Load() }
