package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// newTestServer wraps a Server in an httptest.Server with the documented
// shutdown order registered as cleanup.
func newTestServer(t *testing.T, a *Artifact, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close() // waits for in-flight handlers
		srv.Close()
	})
	return srv, ts
}

// liveVersion is the version the live slot serves ("" when it is empty).
func liveVersion(srv *Server) string {
	info, _ := srv.InfoTag(registry.Live)
	return info.Version
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func recordsJSON(recs []*data.Record) []RecordJSON {
	out := make([]RecordJSON, len(recs))
	for i, r := range recs {
		out[i] = RecordJSON{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	return out
}

// TestServerMatchesInProcessDetector pins the acceptance criterion: the
// served verdicts equal the in-process detector's DetectBatch on the same
// records.
func TestServerMatchesInProcessDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, orig, recs := trainTestArtifact(t, "mlp", 11, 2)
	_, ts := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})

	want := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, want)

	resp, body := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br detectBatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Verdicts) != len(recs) {
		t.Fatalf("%d verdicts for %d records", len(br.Verdicts), len(recs))
	}
	for i, v := range br.Verdicts {
		if v.Class != want[i].Class || v.IsAttack != want[i].IsAttack {
			t.Fatalf("record %d: served verdict {class=%d attack=%v}, in-process {class=%d attack=%v}",
				i, v.Class, v.IsAttack, want[i].Class, want[i].IsAttack)
		}
	}
}

// TestServedVerdictsMatchF64Oracle pins what serving runs — the compiled
// float32 plan, and nothing selectable — against the f64 network the
// artifact rebuilds with NewNetwork, the parity oracle. Same class and
// attack flag on every record, scores within the f32 parity bound.
func TestServedVerdictsMatchF64Oracle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 17, 2)
	want := f64Verdicts(t, a, recs)

	_, ts := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})
	got, _, err := NewClient(ts.URL).Score(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameVerdicts(got, want); err != nil {
		t.Fatalf("served f32 vs f64 oracle: %v", err)
	}
}

// TestConcurrentClientsPreservePairing hammers the dynamic batcher with
// many concurrent clients sending overlapping subsets of a known record
// pool and verifies every response pairs each record with its own
// precomputed verdict — under -race in CI, this also proves the batcher's
// memory discipline.
func TestConcurrentClientsPreservePairing(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, orig, recs := trainTestArtifact(t, "mlp", 13, 2)
	_, ts := newTestServer(t, a, Config{Replicas: 3, MaxBatch: 16, MaxWait: 500 * time.Microsecond, QueueDepth: 64})

	want := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, want)

	const clients = 8
	const requestsPerClient = 20
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for q := 0; q < requestsPerClient; q++ {
				// Random subset with random size: batch boundaries land
				// everywhere, including splitting a request across batches.
				n := 1 + rng.Intn(12)
				idx := make([]int, n)
				sub := make([]*data.Record, n)
				for i := range idx {
					idx[i] = rng.Intn(len(recs))
					sub[i] = recs[idx[i]]
				}
				b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(sub)})
				resp, err := http.Post(ts.URL+"/v2/detect-batch", "application/json", bytes.NewReader(b))
				if err != nil {
					errCh <- err
					return
				}
				var br detectBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if len(br.Verdicts) != n {
					errCh <- fmt.Errorf("client %d: %d verdicts for %d records", c, len(br.Verdicts), n)
					return
				}
				for i, v := range br.Verdicts {
					w := want[idx[i]]
					if v.Class != w.Class || v.IsAttack != w.IsAttack {
						errCh <- fmt.Errorf("client %d: record %d misrouted: got class %d, want %d", c, idx[i], v.Class, w.Class)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestHotReloadNeverDropsRequests fires continuous traffic while the model
// is hot-reloaded back and forth between two generations. Every response
// must be complete and every verdict must match one of the two
// generations' precomputed verdicts for that exact record — no drops, no
// misroutes, no torn models.
func TestHotReloadNeverDropsRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, orig1, recs := trainTestArtifact(t, "mlp", 17, 2)
	a2, orig2, _ := trainTestArtifact(t, "mlp", 23, 3)

	want1 := make([]nids.Verdict, len(recs))
	want2 := make([]nids.Verdict, len(recs))
	orig1.DetectBatch(recs, want1)
	orig2.DetectBatch(recs, want2)

	dir := t.TempDir()
	p1 := filepath.Join(dir, "gen1.plcn")
	p2 := filepath.Join(dir, "gen2.plcn")
	if err := SaveArtifactFile(p1, a1); err != nil {
		t.Fatal(err)
	}
	if err := SaveArtifactFile(p2, a2); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond})

	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	errCh := make(chan error, 4)
	for c := 0; c < 4; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + rng.Intn(8)
				idx := make([]int, n)
				sub := make([]*data.Record, n)
				for i := range idx {
					idx[i] = rng.Intn(len(recs))
					sub[i] = recs[idx[i]]
				}
				b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(sub)})
				resp, err := http.Post(ts.URL+"/v2/detect-batch", "application/json", bytes.NewReader(b))
				if err != nil {
					errCh <- err
					return
				}
				var br detectBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: status %d err %v", c, resp.StatusCode, err)
					return
				}
				if len(br.Verdicts) != n {
					errCh <- fmt.Errorf("client %d: dropped verdicts: %d of %d", c, len(br.Verdicts), n)
					return
				}
				for i, v := range br.Verdicts {
					w1, w2 := want1[idx[i]], want2[idx[i]]
					if (v.Class != w1.Class || v.IsAttack != w1.IsAttack) &&
						(v.Class != w2.Class || v.IsAttack != w2.IsAttack) {
						errCh <- fmt.Errorf("client %d: record %d verdict class %d matches neither generation (%d / %d)",
							c, idx[i], v.Class, w1.Class, w2.Class)
						return
					}
				}
			}
		}(c)
	}

	// Flip between the two generations via the admin endpoint while the
	// clients hammer away.
	for flip := 0; flip < 10; flip++ {
		path := p2
		if flip%2 == 1 {
			path = p1
		}
		resp, body := postJSON(t, ts.URL+"/v2/load?tag=live", loadRequest{Path: path})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", flip, resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	clientWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := liveVersion(srv); got != a1.Version() && got != a2.Version() {
		t.Fatalf("final version %s is neither generation", got)
	}
}

func TestServerRejectsMalformedRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 29, 1)
	_, ts := newTestServer(t, a, Config{})

	// Wrong numeric arity.
	bad := RecordJSON{Numeric: []float64{1, 2}, Categorical: recs[0].Categorical}
	resp, _ := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: []RecordJSON{bad}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-arity record: status %d, want 400", resp.StatusCode)
	}
	// Empty batch.
	resp, _ = postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	// Garbage body.
	r, err := http.Post(ts.URL+"/v2/detect", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", r.StatusCode)
	}
	// Unknown categorical values must not error — get_dummies semantics
	// encode them as all-zeros.
	odd := RecordJSON{Numeric: recs[0].Numeric, Categorical: make([]string, len(recs[0].Categorical))}
	for i := range odd.Categorical {
		odd.Categorical[i] = "never-seen-in-training"
	}
	resp, body := postJSON(t, ts.URL+"/v2/detect", odd)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unseen categorical: status %d: %s", resp.StatusCode, body)
	}
}

// TestBodyLimits pins the request-hardening fixes: every POST endpoint
// caps its body (413 beyond MaxBodyBytes) and rejects trailing data after
// the JSON value (400), so one oversized or smuggled request can neither
// exhaust memory nor slip a second payload past the decoder.
func TestBodyLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 43, 1)
	_, ts := newTestServer(t, a, Config{MaxBodyBytes: 2048})

	rawPost := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Oversized bodies: a few records of padding blows the 2 KiB cap.
	huge := `{"records": [` + strings.Repeat(`{"numeric": [`+strings.Repeat("1,", 400)+`1], "categorical": []},`, 4)
	huge += `]}`
	for _, path := range []string{"/v2/detect", "/v2/detect-batch", "/v2/load?tag=live"} {
		if code := rawPost(path, huge); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", path, code)
		}
	}
	// The trace of a refused scoring request carries the status the client
	// got: 413 here, not a generic 400.
	code, body := getBody(t, ts.URL+"/debug/traces?errors=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	var traced tracesResponse
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Count != 2 {
		t.Fatalf("%d error traces after two oversized scoring requests, want 2", traced.Count)
	}
	for _, tr := range traced.Traces {
		if tr.Status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s trace sealed with status %d, the client was answered 413", tr.Endpoint, tr.Status)
		}
	}

	// Trailing garbage after a syntactically complete JSON value.
	rec, err := json.Marshal(RecordJSON{Numeric: recs[0].Numeric, Categorical: recs[0].Categorical})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:1])})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v2/detect", string(rec) + `{"second": "payload"}`},
		{"/v2/detect", string(rec) + `}`},
		{"/v2/detect-batch", string(batch) + `[1,2]`},
		{"/v2/load?tag=live", `{"path": "x.plcn"} "extra"`},
	} {
		if code := rawPost(tc.path, tc.body); code != http.StatusBadRequest {
			t.Fatalf("%s trailing garbage: status %d, want 400", tc.path, code)
		}
	}

	// Sanity: a clean request still works under the small cap.
	resp, body := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request under cap: status %d: %s", resp.StatusCode, body)
	}
}

// TestClientScoreAndRemoteDetector pins the Go client: Score matches the
// in-process detector, RemoteDetector satisfies the nids contract, and
// request failures are tallied instead of fabricating verdicts.
func TestClientScoreAndRemoteDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, orig, recs := trainTestArtifact(t, "mlp", 47, 2)
	srv, ts := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})

	want := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, want)

	c := NewClient(ts.URL)
	got, version, err := c.Score(recs)
	if err != nil {
		t.Fatal(err)
	}
	if version != a.Version() {
		t.Fatalf("answered version %s, want %s", version, a.Version())
	}
	for i := range got {
		if got[i].Class != want[i].Class || got[i].IsAttack != want[i].IsAttack {
			t.Fatalf("record %d: client verdict %+v != in-process %+v", i, got[i], want[i])
		}
	}

	det := &RemoteDetector{Client: c}
	verdicts := make([]nids.Verdict, len(recs))
	before := srv.reg.StatsFor(registry.Live).Records.Load()
	det.DetectBatch(recs, verdicts)
	for i := range verdicts {
		if verdicts[i].Class != want[i].Class {
			t.Fatalf("remote detector verdict %d mismatched", i)
		}
	}
	if got := srv.reg.StatsFor(registry.Live).Records.Load() - before; got != int64(len(recs)) {
		t.Fatalf("remote detector scored %d records on live, want %d", got, len(recs))
	}
	if det.Errors() != 0 {
		t.Fatalf("unexpected errors: %d", det.Errors())
	}

	// A dead endpoint yields Failed verdicts and a tallied error, not junk.
	deadVerdicts := []nids.Verdict{{IsAttack: true, Class: 3, Score: 9}}
	dead := &RemoteDetector{Client: NewClient("http://127.0.0.1:1")}
	dead.DetectBatch(recs[:1], deadVerdicts)
	if dead.Errors() != 1 {
		t.Fatalf("dead endpoint errors = %d, want 1", dead.Errors())
	}
	if deadVerdicts[0] != (nids.Verdict{Failed: true}) {
		t.Fatalf("dead endpoint fabricated verdict %+v", deadVerdicts[0])
	}
}

// TestArtifactNewNetworkWarmStart pins the warm-start constructor: the
// reconstructed network predicts the trained network's classes and is
// genuinely trainable in place.
func TestArtifactNewNetworkWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, orig, origPipe, recs := trainTestModel(t, "mlp", 53, 2)

	net, pipe, err := a.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.002))
	if err != nil {
		t.Fatal(err)
	}
	want := orig.PredictClasses(encodeProbe(origPipe, recs), 0)
	got := net.PredictClasses(encodeProbe(pipe, recs), 0)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: warm network class %d != trained network %d", i, got[i], want[i])
		}
	}

	// PartialFit on fresh labeled data must move the weights.
	x := tensor.New(len(recs), pipe.Width())
	y := make([]int, len(recs))
	for i, r := range recs {
		pipe.ApplyInto(r, x.Row(i))
		y[i] = r.Label
	}
	before := net.EvalLoss(x.Reshape(len(recs), 1, pipe.Width()), y)
	net.PartialFit(x.Reshape(len(recs), 1, pipe.Width()), y, nn.FitConfig{
		Epochs: 3, BatchSize: 32, Shuffle: true, RNG: rand.New(rand.NewSource(1)),
	})
	after := net.EvalLoss(x.Reshape(len(recs), 1, pipe.Width()), y)
	if after >= before {
		t.Fatalf("PartialFit did not reduce loss: %.4f -> %.4f", before, after)
	}
}

// TestReloadRejectsShapeChange pins the reload guard: an artifact whose
// feature shape differs from the running model's must be rejected (409),
// because in-flight records validated under the old shape could be
// mis-encoded — or panic the worker — under the new one.
func TestReloadRejectsShapeChange(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 41, 1)
	srv, ts := newTestServer(t, a, Config{})
	before := liveVersion(srv)

	// Build a valid artifact over the other dataset's schema (different
	// numeric/categorical feature counts).
	gen, err := synth.New(synth.UNSWNB15Config())
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(300, 1)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	rng := rand.New(rand.NewSource(1))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(2)), features, gen.Schema().NumClasses())
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	net.Fit(x.Reshape(x.Dim(0), 1, x.Dim(1)), y, nn.FitConfig{Epochs: 1, BatchSize: 128})
	other, err := NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "other.plcn")
	if err := SaveArtifactFile(path, other); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v2/load?tag=live", loadRequest{Path: path})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("shape-changing reload: status %d, want 409: %s", resp.StatusCode, body)
	}
	if liveVersion(srv) != before {
		t.Fatal("rejected reload disturbed the serving model")
	}
}

func TestServerReloadRejectsBadArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 31, 1)
	srv, ts := newTestServer(t, a, Config{})
	before := liveVersion(srv)

	junk := filepath.Join(t.TempDir(), "junk.plcn")
	if err := os.WriteFile(junk, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v2/load?tag=live", loadRequest{Path: junk})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("junk reload: status %d, want 422", resp.StatusCode)
	}
	if liveVersion(srv) != before {
		t.Fatal("failed reload disturbed the serving model")
	}
}

func TestHealthModelAndMetricsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 37, 1)
	srv, ts := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 4})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	var info ModelInfo
	resp, err = http.Get(ts.URL + "/v2/models/live")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Model != "mlp" || info.Version != a.Version() || info.Features != a.Features() {
		t.Fatalf("model info mismatch: %+v", info)
	}

	// Score something so the counters move.
	postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:8])})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	prom := buf.String()
	for _, w := range []string{
		"pelican_serve_records_total 8",
		"pelican_serve_batches_total",
		"pelican_serve_request_seconds_count 1",
		`pelican_serve_model_info{slot="live",model="mlp"`,
		`pelican_serve_slot_records_total{slot="live"`,
		"pelican_serve_promotes_total 0",
		"pelican_serve_rollbacks_total 0",
	} {
		if !strings.Contains(prom, w) {
			t.Fatalf("metrics output missing %q:\n%s", w, prom)
		}
	}

	// Drain: scoring 503s, health reports draining.
	srv.BeginDrain()
	resp, _ = postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered scoring with %d, want 503", resp.StatusCode)
	}
}
