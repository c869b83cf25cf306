package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/registry"
	"repro/internal/synth"
	"repro/internal/wire"
)

// trainArtifactOn trains a small MLP over an arbitrary synth config —
// the schema-evolution tests need artifacts whose feature layouts differ
// from the stock NSL-KDD shape in controlled ways.
func trainArtifactOn(t *testing.T, cfg synth.Config, seed int64, epochs int) (*Artifact, []*data.Record) {
	t.Helper()
	gen, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Generate(400, seed)
	x, y, pipe := data.Preprocess(ds)
	features := gen.Schema().EncodedWidth()
	rng := rand.New(rand.NewSource(seed))
	stack := models.BuildMLP(rng, rand.New(rand.NewSource(seed+1)), features, gen.Schema().NumClasses())
	opt := nn.NewRMSprop(0.01)
	opt.MaxNorm = 5
	net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), opt)
	net.Fit(x.Reshape(x.Dim(0), 1, features), y, nn.FitConfig{Epochs: epochs, BatchSize: 128, Shuffle: true, RNG: rng})
	a, err := NewArtifact("mlp", models.PaperBlockConfig(features), gen.Schema(), pipe, net)
	if err != nil {
		t.Fatal(err)
	}
	probe := gen.Generate(32, seed+1000)
	recs := make([]*data.Record, len(probe.Records))
	for i := range probe.Records {
		recs[i] = &probe.Records[i]
	}
	return a, recs
}

func saveArtifact(t *testing.T, a *Artifact) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), a.Version()+".plcn")
	if err := SaveArtifactFile(path, a); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV2RegistryLifecycle walks the whole slot lifecycle over the wire:
// load into shadow, list, per-tag info and scoring, promote (with the
// prior live retained), rollback (exact prior version restored), canary
// tags, and unload.
func TestV2RegistryLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, _, recs := trainTestArtifact(t, "mlp", 61, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 67, 3)
	p2 := saveArtifact(t, a2)

	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	c := NewClient(ts.URL)

	// Load the second generation into shadow.
	info, err := c.LoadTag(p2, "")
	if err != nil {
		t.Fatal(err)
	}
	if info.Tag != registry.Shadow || info.Version != a2.Version() {
		t.Fatalf("LoadTag default: tag=%q version=%s, want shadow/%s", info.Tag, info.Version, a2.Version())
	}

	// The listing shows both slots, live first.
	ms, err := c.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Slots) != 2 || ms.Slots[0].Tag != registry.Live || ms.Slots[1].Tag != registry.Shadow {
		t.Fatalf("listing = %+v", ms.Slots)
	}
	if ms.Slots[0].Version != a1.Version() || ms.Slots[1].Version != a2.Version() {
		t.Fatalf("listing versions %s/%s, want %s/%s", ms.Slots[0].Version, ms.Slots[1].Version, a1.Version(), a2.Version())
	}

	// Per-tag info and scoring.
	if info, err = c.ModelTag("shadow"); err != nil || info.Version != a2.Version() {
		t.Fatalf("ModelTag(shadow) = %+v, %v", info, err)
	}
	if _, err := c.ModelTag("ghost"); err == nil {
		t.Fatal("ModelTag on an empty tag succeeded")
	}
	if _, version, err := c.ScoreTag("shadow", recs[:4]); err != nil || version != a2.Version() {
		t.Fatalf("ScoreTag(shadow) version=%s err=%v, want %s", version, err, a2.Version())
	}
	if _, version, err := c.ScoreTag("", recs[:4]); err != nil || version != a1.Version() {
		t.Fatalf("ScoreTag(live default) version=%s err=%v, want %s", version, err, a1.Version())
	}
	if _, _, err := c.ScoreTag("ghost", recs[:1]); err == nil {
		t.Fatal("scoring an empty tag succeeded")
	}

	// Promote: shadow becomes live, prior live retained, shadow empties.
	info, err = c.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != a2.Version() || info.PreviousVersion != a1.Version() {
		t.Fatalf("promote: live=%s previous=%s, want %s/%s", info.Version, info.PreviousVersion, a2.Version(), a1.Version())
	}
	if _, err := c.ModelTag("shadow"); err == nil {
		t.Fatal("shadow still occupied after promote")
	}
	if _, err := c.Promote(); err == nil {
		t.Fatal("promote with empty shadow succeeded")
	}

	// Rollback: the exact prior version hash returns.
	info, err = c.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != a1.Version() || info.PreviousVersion != a2.Version() {
		t.Fatalf("rollback: live=%s previous=%s, want %s/%s", info.Version, info.PreviousVersion, a1.Version(), a2.Version())
	}
	if got := liveVersion(srv); got != a1.Version() {
		t.Fatalf("server live version %s after rollback, want %s", got, a1.Version())
	}

	// Canary tags are first-class slots; unload removes them.
	if _, err := c.LoadTag(p2, "canary-7"); err != nil {
		t.Fatal(err)
	}
	if _, version, err := c.ScoreTag("canary-7", recs[:2]); err != nil || version != a2.Version() {
		t.Fatalf("canary scoring version=%s err=%v", version, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/models/canary-7", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE canary: status %d", resp.StatusCode)
	}
	if _, err := c.ModelTag("canary-7"); err == nil {
		t.Fatal("canary still loaded after DELETE")
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v2/models/live", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE live: status %d, want 409", resp.StatusCode)
	}

	// The history records the walk.
	ms, err = c.Models()
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tr := range ms.History {
		ops = append(ops, tr.Op)
	}
	want := []string{"load", "load", "promote", "rollback", "load", "unload"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("history ops %v, want %v", ops, want)
	}
	if ms.Promotes != 1 || ms.Rollbacks != 1 {
		t.Fatalf("lifecycle counters %d/%d, want 1/1", ms.Promotes, ms.Rollbacks)
	}
}

// TestLiveLoadRejectsFeatureSetChange pins the strengthened live-slot
// guard: an artifact whose schema matches the live model's feature
// *counts* but not its feature *layout* (renamed column, reordered
// vocabulary) must be rejected by /v2/load?tag=live —
// before this guard, such a swap silently produced garbage scores because
// in-flight and future records one-hot encode differently under the two
// schemas. The same artifact is legal in the shadow slot, which is the
// sanctioned path for schema changes.
func TestLiveLoadRejectsFeatureSetChange(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	base := synth.NSLKDDConfig()
	a1, _ := trainArtifactOn(t, base, 71, 1)

	renamed := synth.NSLKDDConfig()
	renamed.NumericName = append([]string(nil), renamed.NumericName...)
	renamed.NumericName[0] = "definitely_not_" + renamed.NumericName[0]
	a2, _ := trainArtifactOn(t, renamed, 73, 1)
	if a1.Schema.NumNumeric() != a2.Schema.NumNumeric() || len(a1.Schema.Categorical) != len(a2.Schema.Categorical) {
		t.Fatal("test setup: schemas must agree on feature counts")
	}
	p2 := saveArtifact(t, a2)

	srv, ts := newTestServer(t, a1, Config{})
	c := NewClient(ts.URL)

	// A live load: rejected, live untouched.
	resp, body := postJSON(t, ts.URL+"/v2/load?tag=live", loadRequest{Path: p2})
	const refused = `{"error":"load \"live\": serve: artifact's feature layout differs from the live model's (same-shaped swaps only; load into \"shadow\" and promote for schema changes)"}`
	if resp.StatusCode != http.StatusConflict || strings.TrimSpace(string(body)) != refused {
		t.Fatalf("/v2/load?tag=live layout change: %d %s\nwant 409 %s", resp.StatusCode, body, refused)
	}
	if liveVersion(srv) != a1.Version() {
		t.Fatal("rejected live load disturbed the live model")
	}

	// Shadow is the sanctioned path, and promotion carries the schema over.
	if _, err := c.LoadTag(p2, "shadow"); err != nil {
		t.Fatalf("layout-changing artifact rejected from shadow: %v", err)
	}
	info, err := c.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != a2.Version() {
		t.Fatalf("promoted version %s, want %s", info.Version, a2.Version())
	}
}

// TestShadowMirroring pins the mirroring path: live traffic is duplicated
// onto a loaded shadow, both slots' counters move, and the agreement
// split covers every mirrored record. A schema-evolving shadow is not
// mirrored (the drop counter moves instead). Identically on both planes —
// the wire plane's records live in pooled slabs, so its mirror scores a
// copy.
func TestShadowMirroring(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, _, recs := trainTestArtifact(t, "mlp", 79, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 83, 1)
	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	planes := planesOf(t, srv, ts)
	n := int64(len(recs))

	if _, err := NewClient(ts.URL).LoadTag(saveArtifact(t, a2), "shadow"); err != nil {
		t.Fatal(err)
	}
	ans, delta := onBothPlanes(t, srv, planes, n, func(t *testing.T, p scorePlane) planeAnswer {
		return p.score(t, planeRequest{recs: recs})
	})
	if ans.status != http.StatusOK {
		t.Fatalf("live request with a shadow loaded got %d", ans.status)
	}
	if delta["shadow.mirrored"] != n || delta["shadow.records"] != n || delta["shadow.mirror_dropped"] != 0 || delta["live.records"] != n {
		t.Fatalf("%d live records mirrored onto an idle shadow moved the counters by %v", n, delta)
	}
	shadow := srv.reg.StatsFor(registry.Shadow)
	if got := shadow.Agreements.Load() + shadow.Disagreements.Load(); got != shadow.Mirrored.Load() {
		t.Fatalf("agreement split %d covers %d mirrored records", got, shadow.Mirrored.Load())
	}

	// A layout-changing shadow must not be mirrored onto.
	renamed := synth.NSLKDDConfig()
	renamed.NumericName = append([]string(nil), renamed.NumericName...)
	renamed.NumericName[0] = "x_" + renamed.NumericName[0]
	a3, _ := trainArtifactOn(t, renamed, 89, 1)
	if err := srv.LoadSlot("shadow", a3); err != nil {
		t.Fatal(err)
	}
	_, delta = onBothPlanes(t, srv, planes, 8, func(t *testing.T, p scorePlane) planeAnswer {
		return p.score(t, planeRequest{recs: recs[:8]})
	})
	if delta["shadow.mirror_dropped"] != 8 || delta["shadow.mirrored"] != 0 {
		t.Fatalf("layout-mismatched mirror moved the counters by %v, want 8 dropped", delta)
	}
}

// TestClientBackwardCompat pins what is left of the pre-registry client
// surface: Score answers from the live slot, a load into live swaps it and
// retains the rollback generation, and a RemoteDetector without a Tag
// scores on live.
func TestClientBackwardCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, orig, recs := trainTestArtifact(t, "mlp", 97, 2)
	a2, _, _ := trainTestArtifact(t, "mlp", 101, 3)
	p2 := saveArtifact(t, a2)

	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond})
	c := NewClient(ts.URL)

	want := make([]nids.Verdict, len(recs))
	orig.DetectBatch(recs, want)

	// Old Score: live verdicts, live version.
	got, version, err := c.Score(recs)
	if err != nil {
		t.Fatal(err)
	}
	if version != a1.Version() {
		t.Fatalf("Score answered version %s, want live %s", version, a1.Version())
	}
	for i := range got {
		if got[i].Class != want[i].Class || got[i].IsAttack != want[i].IsAttack {
			t.Fatalf("record %d: old-client verdict %+v != in-process %+v", i, got[i], want[i])
		}
	}

	// A load into live swaps it...
	info, err := c.LoadTag(p2, "live")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != a2.Version() || info.PreviousVersion != a1.Version() {
		t.Fatalf("live load served %s over %s, want %s over %s", info.Version, info.PreviousVersion, a2.Version(), a1.Version())
	}
	if _, version, err = c.Score(recs[:4]); err != nil || version != a2.Version() {
		t.Fatalf("post-load Score version %s err=%v", version, err)
	}
	// ...and the displaced generation is reachable by rollback.
	if info, err = c.Rollback(); err != nil || info.Version != a1.Version() {
		t.Fatalf("rollback after a live load: %+v, %v — want %s", info, err, a1.Version())
	}

	// RemoteDetector: default hits live, Tag pins a slot. Each detector's
	// records land on its own slot's direct count: records scored there,
	// less those mirrored onto it from live.
	if _, err := c.LoadTag(p2, "shadow"); err != nil {
		t.Fatal(err)
	}
	direct := func() (live, shadow int64) {
		srv.mirrorWG.Wait()
		l, s := srv.reg.StatsFor(registry.Live), srv.reg.StatsFor(registry.Shadow)
		return l.Records.Load() - l.Mirrored.Load(), s.Records.Load() - s.Mirrored.Load()
	}
	liveDet := &RemoteDetector{Client: c}
	shadowDet := &RemoteDetector{Client: c, Tag: "shadow"}
	verdicts := make([]nids.Verdict, 4)
	live0, shadow0 := direct()
	liveDet.DetectBatch(recs[:4], verdicts)
	if live, shadow := direct(); live-live0 != 4 || shadow != shadow0 {
		t.Fatalf("live detector scored %d records on live and %d on shadow, want 4 and 0", live-live0, shadow-shadow0)
	}
	shadowDet.DetectBatch(recs[:4], verdicts)
	if live, shadow := direct(); live-live0 != 4 || shadow-shadow0 != 4 {
		t.Fatalf("shadow detector scored %d records on live and %d on shadow, want 0 and 4", live-live0-4, shadow-shadow0)
	}
	if liveDet.Errors() != 0 || shadowDet.Errors() != 0 {
		t.Fatalf("unexpected errors: %d/%d", liveDet.Errors(), shadowDet.Errors())
	}
}

// TestPromoteRollbackUnderConcurrentScoring is the acceptance-criterion
// test: clients hammer the live slot while shadow loads, promotions, and
// rollbacks cycle underneath them. Every request must complete (no drops),
// every verdict must match one of the two generations' precomputed
// verdicts for that exact record (in-flight batches finish on their
// generation, never torn), and the final rollback must restore the exact
// prior version hash. Half the clients score over HTTP, half over the
// wire; with nothing shed, every record sent must be counted scored
// exactly once. Run under -race in CI.
func TestPromoteRollbackUnderConcurrentScoring(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, orig1, recs := trainTestArtifact(t, "mlp", 103, 2)
	a2, orig2, _ := trainTestArtifact(t, "mlp", 107, 3)
	p2 := saveArtifact(t, a2)

	want1 := make([]nids.Verdict, len(recs))
	want2 := make([]nids.Verdict, len(recs))
	orig1.DetectBatch(recs, want1)
	orig2.DetectBatch(recs, want2)

	srv, ts := newTestServer(t, a1, Config{Replicas: 2, MaxBatch: 8, MaxWait: 500 * time.Microsecond, QueueDepth: 128})
	c := NewClient(ts.URL)
	wc := wire.NewClient(startWireListener(t, srv))
	defer wc.Close()

	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	errCh := make(chan error, 4)
	requests := make([]int, 4)
	var sent atomic.Int64
	for w := 0; w < 4; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
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
				var got []nids.Verdict
				var err error
				if w%2 == 0 {
					got, _, err = c.ScoreTag("", sub)
				} else {
					got, _, err = wc.Score(sub)
				}
				sent.Add(int64(n))
				if err != nil {
					errCh <- fmt.Errorf("client %d: %v", w, err)
					return
				}
				if len(got) != n {
					errCh <- fmt.Errorf("client %d: dropped verdicts: %d of %d", w, len(got), n)
					return
				}
				for i, v := range got {
					w1, w2 := want1[idx[i]], want2[idx[i]]
					if (v.Class != w1.Class || v.IsAttack != w1.IsAttack) &&
						(v.Class != w2.Class || v.IsAttack != w2.IsAttack) {
						errCh <- fmt.Errorf("record %d verdict class %d matches neither generation (%d / %d)",
							idx[i], v.Class, w1.Class, w2.Class)
						return
					}
				}
				requests[w]++
			}
		}(w)
	}

	// Cycle load→promote→rollback while the clients hammer away.
	for cycle := 0; cycle < 6; cycle++ {
		if _, err := c.LoadTag(p2, "shadow"); err != nil {
			t.Fatalf("cycle %d load: %v", cycle, err)
		}
		before, err := c.ModelTag("live")
		if err != nil {
			t.Fatalf("cycle %d model: %v", cycle, err)
		}
		if before.Version != a1.Version() {
			t.Fatalf("cycle %d: live is %s before promote, want %s", cycle, before.Version, a1.Version())
		}
		info, err := c.Promote()
		if err != nil {
			t.Fatalf("cycle %d promote: %v", cycle, err)
		}
		if info.Version != a2.Version() {
			t.Fatalf("cycle %d: promoted to %s, want %s", cycle, info.Version, a2.Version())
		}
		time.Sleep(2 * time.Millisecond)
		info, err = c.Rollback()
		if err != nil {
			t.Fatalf("cycle %d rollback: %v", cycle, err)
		}
		if info.Version != before.Version {
			t.Fatalf("cycle %d: rollback restored %s, want the exact prior version %s", cycle, info.Version, before.Version)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	clientWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := 0
	for _, n := range requests {
		total += n
	}
	if total == 0 {
		t.Fatal("no client requests completed during the cycles")
	}
	if scored := srv.m.records.Load(); scored != sent.Load() || srv.m.shed.Load() != 0 || srv.m.deadlineExpired.Load() != 0 {
		t.Fatalf("%d records sent over both planes, %d scored (%d shed, %d expired)",
			sent.Load(), scored, srv.m.shed.Load(), srv.m.deadlineExpired.Load())
	}
	if got := liveVersion(srv); got != a1.Version() {
		t.Fatalf("final live version %s, want %s", got, a1.Version())
	}
	if srv.reg.Promotes() != 6 || srv.reg.Rollbacks() != 6 {
		t.Fatalf("lifecycle counters %d/%d, want 6/6", srv.reg.Promotes(), srv.reg.Rollbacks())
	}
}

// TestV2DetectEchoesTag pins /v2's answers byte for byte: both scoring
// shapes and the slot description name the slot they answer for, the
// method and body refusals, and that a /v1 path is not served (404).
// The bytes that vary by run are masked: the version hash as V, loaded_at
// as T, scores as S.
func TestV2DetectEchoesTag(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 109, 1)
	_, ts := newTestServer(t, a, Config{Replicas: 2, MaxBatch: 4})
	js := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rj := recordsJSON(recs[:2])
	rows := []struct {
		name, method, path, body string
		status                   int
		want                     string
	}{
		{"model", "GET", "/v2/models/live", "", 200,
			`{"model":"mlp","version":"V","tag":"live","features":121,"classes":5,"class_names":["normal","dos","probe","r2l","u2r"],"replicas":2,"max_batch":4,"max_wait_ms":2,"loaded_at":"T"}`},
		{"detect", "POST", "/v2/detect", js(rj[0]), 200,
			`{"model_version":"V","tag":"live","verdict":{"is_attack":false,"class":0,"class_name":"normal","score":S}}`},
		{"detect-batch", "POST", "/v2/detect-batch?tag=live", js(detectBatchRequest{Records: rj}), 200,
			`{"model_version":"V","tag":"live","verdicts":[{"is_attack":false,"class":0,"class_name":"normal","score":S},{"is_attack":true,"class":2,"class_name":"probe","score":S}]}`},
		{"detect wants POST", "GET", "/v2/detect", "", 405, `{"error":"POST required"}`},
		{"detect-batch empty", "POST", "/v2/detect-batch", `{"records":[]}`, 400, `{"error":"empty records","request_id":"golden"}`},
		{"load wants POST", "GET", "/v2/load", "", 405, `{"error":"POST required"}`},
		{"load without a path", "POST", "/v2/load", `{}`, 400, `{"error":"body must be {\"path\": \"artifact file\"}"}`},
		{"no /v1", "POST", "/v1/detect-batch", js(detectBatchRequest{Records: rj}), 404, `404 page not found`},
	}
	loadedAt := regexp.MustCompile(`"loaded_at":"[^"]*"`)
	score := regexp.MustCompile(`"score":[-+0-9.e]+`)
	for _, row := range rows {
		req, err := http.NewRequest(row.method, ts.URL+row.path, strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "golden")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := strings.ReplaceAll(string(bytes.TrimSpace(raw)), a.Version(), "V")
		got = loadedAt.ReplaceAllString(got, `"loaded_at":"T"`)
		got = score.ReplaceAllString(got, `"score":S`)
		if resp.StatusCode != row.status || got != row.want {
			t.Errorf("%s: %s %s answered %d %s\nwant %d %s", row.name, row.method, row.path, resp.StatusCode, got, row.status, row.want)
		}
	}
}
