package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// TestClientDefaultTimeout pins the satellite fix: a Client without its
// own *http.Client gets DefaultClientTimeout, never an unbounded wait.
func TestClientDefaultTimeout(t *testing.T) {
	c := NewClient("http://127.0.0.1:0")
	if got := c.http().Timeout; got != DefaultClientTimeout {
		t.Fatalf("default client timeout = %v, want %v", got, DefaultClientTimeout)
	}
	own := &http.Client{Timeout: time.Second}
	c.HTTP = own
	if c.http() != own {
		t.Fatal("supplied *http.Client was not used")
	}
}

// scriptedServer is a minimal scoring endpoint whose health is a switch:
// unhealthy answers `status`, healthy answers well-formed verdicts (and
// model info), counting every request that reaches it.
type scriptedServer struct {
	hits    atomic.Int64
	failing atomic.Bool
	status  int
}

func (ss *scriptedServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ss.hits.Add(1)
		if ss.failing.Load() {
			http.Error(w, "injected failure", ss.status)
			return
		}
		switch r.URL.Path {
		case "/v2/models/live":
			json.NewEncoder(w).Encode(ModelInfo{Model: "scripted", Version: "v1"})
		case "/v2/detect-batch":
			var req detectBatchRequest
			json.NewDecoder(r.Body).Decode(&req)
			resp := detectBatchResponse{ModelVersion: "v1", Verdicts: make([]VerdictJSON, len(req.Records))}
			json.NewEncoder(w).Encode(resp)
		default:
			json.NewEncoder(w).Encode(struct{}{})
		}
	})
}

// TestClientRetriesIdempotentCalls checks the retry loop: transient 503s
// on a scoring call are retried with backoff until the server recovers,
// within MaxAttempts.
func TestClientRetriesIdempotentCalls(t *testing.T) {
	ss := &scriptedServer{status: http.StatusServiceUnavailable}
	var failLeft atomic.Int64
	failLeft.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failLeft.Add(-1) >= 0 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		ss.handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 3, RetryBase: time.Millisecond}
	recs := []*data.Record{{Numeric: []float64{1}}}
	verdicts, version, err := c.Score(recs)
	if err != nil {
		t.Fatalf("scoring did not survive 2 transient 503s: %v", err)
	}
	if version != "v1" || len(verdicts) != 1 {
		t.Fatalf("got version %q, %d verdicts", version, len(verdicts))
	}
}

// TestClientRetriesTransportErrors checks a dead-network fault (injected
// via chaos.Transport) is retried and the call recovers once the fault
// clears.
func TestClientRetriesTransportErrors(t *testing.T) {
	ss := &scriptedServer{}
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	fp := &chaos.FailPoint{}
	fp.FailNext(2)
	c := &Client{
		BaseURL:     ts.URL,
		HTTP:        &http.Client{Transport: &chaos.Transport{Fail: fp}},
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
	}
	info, err := c.ModelTag("live")
	if err != nil {
		t.Fatalf("GET did not survive 2 injected transport faults: %v", err)
	}
	if info.Model != "scripted" {
		t.Fatalf("got model %q", info.Model)
	}
	if n := ss.hits.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (faults never arrive)", n)
	}
}

// TestClientNeverRetriesMutatingCalls pins the idempotency split: promote
// (and every control-plane mutation) is attempted exactly once even when
// it fails with a retryable-looking status — promote twice is not promote
// once.
func TestClientNeverRetriesMutatingCalls(t *testing.T) {
	ss := &scriptedServer{status: http.StatusInternalServerError}
	ss.failing.Store(true)
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxAttempts: 5, RetryBase: time.Millisecond}
	if _, err := c.Promote(); err == nil {
		t.Fatal("promote against a failing server succeeded")
	}
	if n := ss.hits.Load(); n != 1 {
		t.Fatalf("failing promote was sent %d times, want exactly 1", n)
	}
}

// TestClientBreakerFastFailsAndRecovers is the client-resilience e2e: hard
// failures trip the breaker, further calls fast-fail with ErrBreakerOpen
// without touching the server, and once the server heals a half-open probe
// restores service.
func TestClientBreakerFastFailsAndRecovers(t *testing.T) {
	ss := &scriptedServer{status: http.StatusInternalServerError}
	ss.failing.Store(true)
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	br := &resilience.Breaker{FailureThreshold: 3, OpenFor: 50 * time.Millisecond}
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1, RetryBase: time.Millisecond, Breaker: br}

	for i := 0; i < 3; i++ {
		if _, err := c.ModelTag("live"); err == nil {
			t.Fatalf("call %d against a failing server succeeded", i)
		}
	}
	if st := br.State(); st != resilience.BreakerOpen {
		t.Fatalf("breaker %s after %d hard failures, want open", st, 3)
	}
	sent := ss.hits.Load()
	if _, err := c.ModelTag("live"); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("open-breaker call error = %v, want ErrBreakerOpen", err)
	}
	if n := ss.hits.Load(); n != sent {
		t.Fatalf("open breaker let %d requests through", n-sent)
	}
	if br.ShortCircuits() == 0 {
		t.Fatal("no short-circuits counted")
	}

	// Heal the server, wait out the cool-down: the next call is the probe
	// and must both succeed and re-close the breaker.
	ss.failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.ModelTag("live"); err != nil {
		t.Fatalf("half-open probe failed against a healthy server: %v", err)
	}
	if st := br.State(); st != resilience.BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

// TestBreakerIgnoresSheddingStatuses pins the status classification: 429
// and 503 are a live server shedding load — retryable, but never breaker
// evidence. Only hard 5xx and transport faults may trip it.
func TestBreakerIgnoresSheddingStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		ss := &scriptedServer{status: status}
		ss.failing.Store(true)
		ts := httptest.NewServer(ss.handler())
		br := &resilience.Breaker{FailureThreshold: 2, OpenFor: time.Hour}
		c := &Client{BaseURL: ts.URL, MaxAttempts: 1, RetryBase: time.Millisecond, Breaker: br}
		for i := 0; i < 5; i++ {
			if _, err := c.ModelTag("live"); err == nil {
				t.Fatalf("status %d: call %d succeeded", status, i)
			}
		}
		if st := br.State(); st != resilience.BreakerClosed {
			t.Fatalf("status %d tripped the breaker to %s", status, st)
		}
		ts.Close()
	}
}

// TestRemoteDetectorDegradesUnderBreaker proves the pipeline-facing
// guarantee: with the server down and the breaker open, DetectBatch
// returns promptly with Failed verdicts and a counted error — dropped
// flows, never a hang and never a panic.
func TestRemoteDetectorDegradesUnderBreaker(t *testing.T) {
	ss := &scriptedServer{status: http.StatusBadGateway}
	ss.failing.Store(true)
	ts := httptest.NewServer(ss.handler())
	defer ts.Close()

	br := &resilience.Breaker{FailureThreshold: 1, OpenFor: time.Hour}
	det := &RemoteDetector{Client: &Client{BaseURL: ts.URL, MaxAttempts: 1, RetryBase: time.Millisecond, Breaker: br}}

	recs := []*data.Record{{Numeric: []float64{1}}, {Numeric: []float64{2}}}
	verdicts := make([]nids.Verdict, len(recs))
	start := time.Now()
	for i := 0; i < 4; i++ {
		det.DetectBatch(recs, verdicts)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("4 failed batches took %v — the breaker should fast-fail", waited)
	}
	for i, v := range verdicts {
		if !v.Failed {
			t.Fatalf("verdict %d not marked Failed", i)
		}
	}
	if got := det.Errors(); got != 4 {
		t.Fatalf("Errors() = %d, want 4", got)
	}
	if br.ShortCircuits() == 0 {
		t.Fatal("breaker never short-circuited: every batch hit the dead server")
	}
}

// TestClientShedStatusOnDrain pins the one shed rule across planes: a
// draining server's 503, as serve.Client reports it, is a shed to
// wire.ShedStatus just as a wire Error frame's is.
func TestClientShedStatusOnDrain(t *testing.T) {
	srv, ts := newTestServer(t, tinyArtifact(t), Config{Replicas: 1})
	srv.BeginDrain()
	c := &Client{BaseURL: ts.URL, MaxAttempts: 1}
	_, _, err := c.Score([]*data.Record{{Numeric: []float64{1, 2}, Categorical: []string{"tcp"}}})
	if status, shed := wire.ShedStatus(err); status != http.StatusServiceUnavailable || !shed {
		t.Fatalf("draining server: ShedStatus(%v) = (%d, %v), want (503, true)", err, status, shed)
	}
}

// TestRetryableClassification pins the status partition the retry loop
// runs on.
func TestRetryableClassification(t *testing.T) {
	for status, want := range map[int]bool{
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true,
		http.StatusBadGateway:          true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
		http.StatusBadRequest:          false,
		http.StatusNotFound:            false,
		http.StatusConflict:            false,
		http.StatusUnprocessableEntity: false,
	} {
		if got := resilience.Retryable(&statusError{status: status}); got != want {
			t.Errorf("Retryable(%d) = %v, want %v", status, got, want)
		}
	}
	if !resilience.Retryable(errors.New("connection refused")) {
		t.Error("transport error not retryable")
	}
	if resilience.Retryable(resilience.ErrBreakerOpen) {
		t.Error("ErrBreakerOpen retryable: the cool-down outlives any backoff")
	}
}

// TestBackoffHonorsRetryAfter checks a server-sent Retry-After floors the
// computed backoff.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	last := &statusError{status: http.StatusServiceUnavailable, retryAfter: time.Second}
	for i := 1; i <= 3; i++ {
		if d := resilience.Backoff(time.Millisecond, i, last); d < time.Second {
			t.Fatalf("attempt %d backoff %v under the server's Retry-After of 1s", i, d)
		}
	}
	// Without Retry-After the jittered exponential stays near its base.
	if d := resilience.Backoff(time.Millisecond, 1, errors.New("x")); d > 100*time.Millisecond {
		t.Fatalf("first backoff %v with a 1ms base", d)
	}
}
