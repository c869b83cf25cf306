package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/registry"
)

// scrapeProm fetches /metrics and parses it; ParseProm failing (malformed
// lines, duplicate HELP/TYPE) is itself a test failure, so every caller
// doubles as an exposition-format check.
func scrapeProm(t *testing.T, baseURL string) map[string]*obs.PromFamily {
	t.Helper()
	code, body := getBody(t, baseURL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	fams, err := obs.ParseProm(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition format: %v", err)
	}
	return fams
}

// TestMetricsExpositionFormat is the /metrics contract, checked on what
// /metrics serves. It scrapes one server in which every family has
// samples: store-backed (the pelican_store_* families), with a promoted
// generation (model_info{slot="previous"}), closed and brought back by
// Recover (pelican_recovery_duration_seconds), then scored. The scrape
// must parse (ParseProm refuses a duplicate HELP or TYPE), and then:
//   - every family has HELP, TYPE and at least one sample;
//   - every name is pelican_ plus lower-case words, and TYPE is counter
//     exactly when the name ends in _total;
//   - the samples of a family carry one label-key set, le aside;
//   - the family set is SERVING.md's catalogue, row for row;
//   - every pelican_* string literal in the module's non-test Go names a
//     served family or one of a histogram's _bucket/_sum/_count series;
//   - every model_info sample, the previous generation's too, names its
//     model;
//   - every histogram series is cumulative, ends in +Inf == _count, and
//     has a _sum its buckets allow.
func TestMetricsExpositionFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	dir := t.TempDir()
	a1, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 12, 1)
	first, err := New(a1, durableConfig(openStore(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	if err := first.Promote(); err != nil {
		t.Fatal(err)
	}
	first.Close()
	_, ts := recoverServer(t, durableConfig(openStore(t, dir)))

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scoring round %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	fams := scrapeProm(t, ts.URL)

	nameRE := regexp.MustCompile(`^pelican(_[a-z][a-z0-9]*)+$`)
	for name, f := range fams {
		if f.Help == "" || f.Type == "" || len(f.Samples) == 0 {
			t.Errorf("%s: HELP %q, TYPE %q, %d samples; a family needs all three", name, f.Help, f.Type, len(f.Samples))
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: name is not pelican_ plus lower-case words", name)
		}
		if (f.Type == "counter") != strings.HasSuffix(name, "_total") {
			t.Errorf("%s: TYPE %s; a family is a counter exactly when its name ends in _total", name, f.Type)
		}
		for _, s := range f.Samples {
			if got, want := promLabelKeys(s), promLabelKeys(f.Samples[0]); got != want {
				t.Errorf("%s: sample %s has label keys [%s], the family's first has [%s]", name, s.Name, got, want)
				break
			}
		}
	}

	moduleRoot := filepath.Join("..", "..") // go test runs in the package directory
	doc, err := os.ReadFile(filepath.Join(moduleRoot, "SERVING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, catalogue, _ := strings.Cut(string(doc), "<!-- metrics:begin -->")
	catalogue, _, found := strings.Cut(catalogue, "<!-- metrics:end -->")
	if !found {
		t.Fatal("SERVING.md has no metrics:begin / metrics:end catalogue")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(pelican[A-Za-z0-9_]*)`").FindAllStringSubmatch(catalogue, -1) {
		documented[m[1]] = true
	}
	for name := range fams {
		if !documented[name] {
			t.Errorf("%s is served but has no row in SERVING.md's metric catalogue", name)
		}
	}
	for name := range documented {
		if fams[name] == nil {
			t.Errorf("SERVING.md's metric catalogue lists %s, which /metrics does not serve", name)
		}
	}

	lits := pelicanLiterals(t, moduleRoot)
	for _, lit := range lits {
		if !servesSeries(fams, lit.name) {
			t.Errorf("%s: %q names no family /metrics serves", lit.pos, lit.name)
		}
	}
	t.Logf("%d families served and catalogued; %d pelican_* literals name them", len(fams), len(lits))

	// Error counters must be split by class, not collapsed.
	var codes []string
	for _, s := range fams["pelican_serve_request_errors_total"].Samples {
		codes = append(codes, s.Label("code"))
	}
	for _, want := range []string{"4xx", "5xx"} {
		found := false
		for _, c := range codes {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("pelican_serve_request_errors_total has no code=%q series (got %v)", want, codes)
		}
	}

	// Every model_info sample names its model, the held rollback
	// generation's included.
	slots := map[string]string{}
	for _, s := range fams["pelican_serve_model_info"].Samples {
		slots[s.Label("slot")] = s.Label("model")
		if s.Label("model") == "" {
			t.Errorf("pelican_serve_model_info{slot=%q} has an empty model label", s.Label("slot"))
		}
	}
	if _, ok := slots[registry.Previous]; !ok {
		t.Errorf("pelican_serve_model_info has no slot=%q sample (got %v)", registry.Previous, slots)
	}

	// Every histogram family: group samples by label set and check the
	// cumulative-bucket invariants series by series.
	checked := 0
	for name, f := range fams {
		if f.Type != "histogram" {
			continue
		}
		for _, series := range promSeries(f) {
			h := f.Histogram(series)
			if h == nil {
				t.Fatalf("%s: series %v disappeared on extraction", name, series)
			}
			prev := int64(0)
			for i, n := range h.Counts {
				if n < prev {
					t.Fatalf("%s%v: bucket le=%g count %d < previous %d (not cumulative)",
						name, series, h.Bounds[i], n, prev)
				}
				prev = n
			}
			if h.Inf < prev {
				t.Fatalf("%s%v: +Inf bucket %d < last finite bucket %d", name, series, h.Inf, prev)
			}
			if h.Inf != h.Count {
				t.Fatalf("%s%v: +Inf bucket %d != _count %d", name, series, h.Inf, h.Count)
			}
			if h.Count == 0 {
				if h.Sum != 0 {
					t.Fatalf("%s%v: empty histogram with _sum %g", name, series, h.Sum)
				}
				continue
			}
			// The mean must be non-negative and, when every observation
			// landed in a finite bucket, no larger than the top bound.
			mean := h.Sum / float64(h.Count)
			if mean < 0 || math.IsNaN(mean) {
				t.Fatalf("%s%v: impossible mean %g", name, series, mean)
			}
			if len(h.Counts) > 0 && h.Counts[len(h.Counts)-1] == h.Count && len(h.Bounds) > 0 {
				if top := h.Bounds[len(h.Bounds)-1]; mean > top {
					t.Fatalf("%s%v: mean %g exceeds top bound %g though no observation overflowed",
						name, series, mean, top)
				}
			}
			checked++
		}
	}
	if checked < 6 {
		t.Fatalf("only %d histogram series checked — stage histograms missing?", checked)
	}

	// The stage histograms must be per-slot.
	if h := fams["pelican_serve_infer_seconds"].Histogram(map[string]string{"slot": "live"}); h == nil || h.Count == 0 {
		t.Fatal("pelican_serve_infer_seconds{slot=\"live\"} empty after traffic")
	}
}

// promLabelKeys renders a sample's label keys, le aside, sorted.
func promLabelKeys(s obs.PromSample) string {
	var keys []string
	for k := range s.Labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// promSeries returns the distinct label sets, le aside, of a family's
// samples, so each histogram series can be checked on its own.
func promSeries(f *obs.PromFamily) []map[string]string {
	seen := map[string]bool{}
	var out []map[string]string
	for _, s := range f.Samples {
		labels := map[string]string{}
		for k, v := range s.Labels {
			if k != "le" {
				labels[k] = v
			}
		}
		if key := fmt.Sprint(labels); !seen[key] { // fmt sorts map keys
			seen[key] = true
			out = append(out, labels)
		}
	}
	return out
}

// servesSeries reports whether name is a served family, or the _bucket,
// _sum or _count series of a served histogram.
func servesSeries(fams map[string]*obs.PromFamily, name string) bool {
	if fams[name] != nil {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && fams[base] != nil && fams[base].Type == "histogram" {
			return true
		}
	}
	return false
}

type pelicanLiteral struct {
	pos  token.Position
	name string
}

// pelicanLiterals returns every string literal shaped like a metric name
// (pelican_ then word characters) in the module's non-test Go files,
// skipping testdata and dot-directories: the names the binaries, the
// bench harness and the server itself read or write.
func pelicanLiterals(t *testing.T, root string) []pelicanLiteral {
	t.Helper()
	litRE := regexp.MustCompile(`^pelican_[A-Za-z0-9_]+$`)
	fset := token.NewFileSet()
	var out []pelicanLiteral
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if v, err := strconv.Unquote(lit.Value); err == nil && litRE.MatchString(v) {
				out = append(out, pelicanLiteral{pos: fset.Position(lit.Pos()), name: v})
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no pelican_* literal found in the module: the walk is broken")
	}
	return out
}

// TestTracingEndToEnd is the tentpole acceptance test: under an injected
// engine stall, /debug/traces?slowest= returns complete traces whose
// spans decompose the latency and attribute the stall to the infer stage
// with the chaos delay called out.
func TestTracingEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	inj := &chaos.Injector{}
	_, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond, Chaos: inj,
	})

	// One batch's worth of records: the stall then lands in a single infer
	// span instead of rippling into queue_wait for follow-on batches.
	inj.SetScoreDelay(30 * time.Millisecond)
	const wantID = "deadbeefcafef00d"
	batchRecs := recs[:8]
	b, err := json.Marshal(detectBatchRequest{Records: recordsJSON(batchRecs)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/detect-batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, wantID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	inj.SetScoreDelay(0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scoring status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != wantID {
		t.Fatalf("response %s = %q, want the caller-supplied %q", obs.RequestIDHeader, got, wantID)
	}

	code, body := getBody(t, ts.URL+"/debug/traces?slowest=5")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d: %s", code, body)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("/debug/traces body: %v", err)
	}
	if tr.Count == 0 {
		t.Fatal("/debug/traces holds no traces after a scored request")
	}
	var got *obs.Trace
	for _, cand := range tr.Traces {
		if cand.ID == wantID {
			got = cand
		}
	}
	if got == nil {
		t.Fatalf("trace %s not in the %d slowest", wantID, tr.Count)
	}
	if got.Status != http.StatusOK || got.Slot != "live" || got.Records != len(batchRecs) {
		t.Fatalf("trace fields: status=%d slot=%q records=%d, want 200/live/%d",
			got.Status, got.Slot, got.Records, len(batchRecs))
	}
	stages := map[string]bool{}
	var inferAttrs map[string]string
	for _, sp := range got.Spans {
		stages[sp.Name] = true
		if sp.Name == "infer" && sp.Attrs["chaos_delay_ms"] != "" {
			inferAttrs = sp.Attrs
		}
	}
	for _, want := range []string{"admit", "queue_wait", "batch_assembly", "infer", "encode"} {
		if !stages[want] {
			t.Fatalf("trace %s is missing the %s span (has %v)", wantID, want, stages)
		}
	}
	if inferAttrs == nil {
		t.Fatalf("no infer span carries chaos_delay_ms despite the injected stall: %+v", got.Spans)
	}
	// The stall must be attributed to the engine stage: infer dominates.
	infer, queue := got.StageDur("infer"), got.StageDur("queue_wait")
	if infer < 25*time.Millisecond {
		t.Fatalf("infer stage %v does not reflect the 30ms injected stall", infer)
	}
	if infer <= queue {
		t.Fatalf("stall attributed to queue_wait (%v) not infer (%v)", queue, infer)
	}

	// Error path: a bad body must answer 400 with the request ID echoed in
	// the JSON error, and the failed trace must be filterable.
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v2/detect-batch", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "badbadbadbadbad0")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	errBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body answered %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(errBody, &er); err != nil {
		t.Fatalf("error body is not JSON: %s", errBody)
	}
	if er.RequestID != "badbadbadbadbad0" {
		t.Fatalf("error body request_id = %q, want the caller's ID", er.RequestID)
	}
	code, body = getBody(t, ts.URL+"/debug/traces?errors=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces?errors=1 = %d", code)
	}
	var errTraces tracesResponse
	if err := json.Unmarshal(body, &errTraces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cand := range errTraces.Traces {
		if cand.ID == "badbadbadbadbad0" {
			found = true
			if cand.Status != http.StatusBadRequest || cand.Error == "" {
				t.Fatalf("failed trace recorded as status=%d error=%q", cand.Status, cand.Error)
			}
		}
	}
	if !found {
		t.Fatal("the 400 request's trace is missing from /debug/traces?errors=1")
	}
}

// TestRequestIDHonouredOnlyWhenBounded pins the X-Request-Id rule: an
// incoming ID of 1–64 bytes of [0-9A-Za-z._:-] is echoed and traced as
// sent; anything else — a header-sized ID, a control byte, a space — is
// replaced by a generated one, so no client can pin memory in the trace
// ring or write arbitrary bytes into the logs through it.
func TestRequestIDHonouredOnlyWhenBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, _ := trainTestArtifact(t, "mlp", 37, 1)
	_, ts := newTestServer(t, a, Config{})

	huge := strings.Repeat("a", 512<<10)
	for id, kept := range map[string]bool{
		"deadbeefcafef00d":      true,
		"golden":                true,
		"svc-a:req_42.retry-1":  true,
		strings.Repeat("x", 64): true,
		strings.Repeat("x", 65): false,
		huge:                    false,
		"two words":             false,
		"semi;colon":            false,
		"tab\tid":               false,
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/detect-batch", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get(obs.RequestIDHeader)
		short := id
		if len(short) > 16 {
			short = short[:16] + "…"
		}
		if kept && got != id {
			t.Errorf("valid ID %q echoed as %q", short, got)
		}
		if !kept && (got == id || !validRequestID(got)) {
			t.Errorf("invalid ID %q (%d bytes) echoed as %.20q, want a generated ID", short, len(id), got)
		}
	}
	_, body := getBody(t, ts.URL+"/debug/traces")
	if strings.Contains(string(body), huge[:65]) {
		t.Fatal("/debug/traces holds the oversized request ID")
	}
}
