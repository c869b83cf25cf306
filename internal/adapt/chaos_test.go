package adapt

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/synth"
)

// flakyPublisher is a Publisher whose Stage and Promote both consult one
// chaos.FailPoint before acting, counting the promotions that actually
// land and serving the last one as its live version.
type flakyPublisher struct {
	fail      *chaos.FailPoint
	staged    string
	live      string
	published atomic.Int64
}

func (p *flakyPublisher) Stage(_ string, a *serve.Artifact) error {
	if err := p.fail.Check(); err != nil {
		return err
	}
	p.staged = a.Version()
	return nil
}

func (p *flakyPublisher) Promote() error {
	if err := p.fail.Check(); err != nil {
		return err
	}
	p.live, p.staged = p.staged, ""
	p.published.Add(1)
	return nil
}

func (p *flakyPublisher) LiveVersion() (string, error) { return p.live, nil }

// TestRetryPublishBackoffConverges pins the retry helper in isolation: a
// publisher failing its first two calls converges on the third inside
// publishAttempts, the tries are accounted on the event, and a publisher
// failing every call exhausts the budget and reports the last error.
func TestRetryPublishBackoffConverges(t *testing.T) {
	l := &Loop{cfg: Config{publishBackoff: time.Millisecond}.withDefaults()}

	p := &flakyPublisher{fail: &chaos.FailPoint{}}
	p.fail.FailNext(2)
	var ev Event
	if err := l.retryPublish(&ev, p.Promote); err != nil {
		t.Fatalf("publish did not converge past 2 injected failures: %v", err)
	}
	if ev.PublishTries != 3 {
		t.Fatalf("PublishTries = %d, want 3 (2 failures + 1 success)", ev.PublishTries)
	}
	if got := p.published.Load(); got != 1 {
		t.Fatalf("published %d times, want exactly 1", got)
	}

	// Exhaustion: more scripted failures than attempts.
	p2 := &flakyPublisher{fail: &chaos.FailPoint{}}
	p2.fail.FailNext(10)
	var ev2 Event
	if err := l.retryPublish(&ev2, p2.Promote); err == nil {
		t.Fatal("publish against a dead publisher reported success")
	}
	if ev2.PublishTries != 3 {
		t.Fatalf("PublishTries = %d after exhaustion, want 3", ev2.PublishTries)
	}
	if got := p2.published.Load(); got != 0 {
		t.Fatalf("published %d times through a dead publisher", got)
	}
}

// TestAdaptPublishRetryConverges is the chaos e2e for the adaptation loop:
// a drift-triggered retrain whose publisher fails transiently (the first
// two stage calls) is retried with backoff and converges — the retrain
// counts, the artifact ships exactly once, and the event records the
// absorbed tries.
func TestAdaptPublishRetryConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 41)

	pub := &flakyPublisher{fail: &chaos.FailPoint{}}
	pub.fail.FailNext(2)
	loop, err := NewLoop(art, Config{
		BufferCap: 256, MinRetrain: 64, RetrainEpochs: 1,
		GateOff: true, ArtifactDir: t.TempDir(),
		Publisher:      pub,
		publishBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(256, 43)
	for i := range ds.Records {
		loop.buf.Add(ds.Records[i], ds.Records[i].Label)
	}

	ev := loop.adapt(Trigger{Signal: "test", Z: 9})
	if ev.Err != nil {
		t.Fatalf("adapt failed: %v", ev.Err)
	}
	if ev.PublishTries != 4 {
		t.Fatalf("PublishTries = %d, want 4 (2 transient stage failures absorbed, then stage + promote)", ev.PublishTries)
	}
	if got := pub.published.Load(); got != 1 {
		t.Fatalf("published %d times, want exactly 1", got)
	}
	if got := loop.Retrains(); got != 1 {
		t.Fatalf("Retrains() = %d, want 1", got)
	}
	if loop.Version() == art.Version() || pub.live != loop.Version() {
		t.Fatalf("loop is on %s, publisher serves %s, seed was %s", loop.Version(), pub.live, art.Version())
	}

	// A publisher that stays dead fails the attempt — and leaves the
	// published generation untouched.
	pub.fail.FailNext(10)
	for i := range ds.Records {
		loop.buf.Add(ds.Records[i], ds.Records[i].Label)
	}
	prev := loop.Version()
	ev2 := loop.adapt(Trigger{Signal: "test", Z: 9})
	if ev2.Err == nil {
		t.Fatal("adapt through a dead publisher reported success")
	}
	if got := loop.Retrains(); got != 1 {
		t.Fatalf("Retrains() = %d after failed publish, want still 1", got)
	}
	if loop.Version() != prev {
		t.Fatal("failed publish advanced the deployed generation")
	}
}

// lostAnswers is a RoundTripper that lets a request through and then, when
// its fail point says so, throws the answer away: the server acted, the
// client hears a transport error. chaos.Transport fails a request before
// it is sent; this is the other half of an unreliable network.
type lostAnswers struct {
	path string // only answers to this path are at risk
	fail *chaos.FailPoint
}

func (t lostAnswers) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && req.URL.Path == t.path {
		if ferr := t.fail.Check(); ferr != nil {
			resp.Body.Close()
			return nil, ferr
		}
	}
	return resp, err
}

// TestAdaptPublishSurvivesLostPromoteResponse pins the non-idempotent
// promote: the first /v2/promote lands on the server and only its response
// is lost. A blind retry finds an empty shadow (409) and would discard a
// retrain the server now serves; the loop must instead notice live already
// is the candidate, count the retrain, and move its own lineage forward.
func TestAdaptPublishSurvivesLostPromoteResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	gen, err := synth.New(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	art := trainTinyArtifact(t, gen, 400, 2, 41)
	srv, err := serve.New(art, serve.Config{Replicas: 1, MaxBatch: 16, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	lost := &chaos.FailPoint{}
	lost.FailNext(1)
	client := &serve.Client{
		BaseURL: ts.URL,
		HTTP:    &http.Client{Transport: lostAnswers{path: "/v2/promote", fail: lost}},
	}
	loop, err := NewLoop(art, Config{
		BufferCap: 256, MinRetrain: 64, RetrainEpochs: 1,
		GateOff: true, ArtifactDir: t.TempDir(),
		Publisher:      HTTPPublisher{Client: client},
		publishBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(256, 43)
	for i := range ds.Records {
		loop.buf.Add(ds.Records[i], ds.Records[i].Label)
	}

	ev := loop.adapt(Trigger{Signal: "test", Z: 9})
	if ev.Err != nil {
		t.Fatalf("a promote whose answer was lost failed the retrain: %v", ev.Err)
	}
	if ev.PublishTries != 2 {
		t.Fatalf("PublishTries = %d, want 2: the promote landed the first time and must not be sent again", ev.PublishTries)
	}
	if got := liveVersion(srv); got != ev.Version || loop.Version() != got {
		t.Fatalf("server serves %s, event published %s, loop is on %s", got, ev.Version, loop.Version())
	}
	if loop.Retrains() != 1 {
		t.Fatalf("Retrains() = %d, want 1", loop.Retrains())
	}
}
