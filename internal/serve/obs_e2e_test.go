package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
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

// TestMetricsExpositionFormat is the format-contract test: after real
// traffic, /metrics must parse cleanly (which enforces unique HELP/TYPE
// per family), every histogram family must have monotone non-decreasing
// cumulative buckets ending in +Inf == _count, and _sum must be
// consistent with the bucketed distribution.
func TestMetricsExpositionFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	_, ts := newTestServer(t, a, Config{Replicas: 1, MaxBatch: 8, MaxWait: time.Millisecond})

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/detect-batch", detectBatchRequest{Records: recordsJSON(recs)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scoring round %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	fams := scrapeProm(t, ts.URL)

	// Families the serving plane promises.
	for _, name := range []string{
		"pelican_serve_records_total",
		"pelican_serve_request_errors_total",
		"pelican_serve_request_seconds",
		"pelican_serve_queue_wait_seconds",
		"pelican_serve_batch_assembly_seconds",
		"pelican_serve_infer_seconds",
		"pelican_serve_encode_seconds",
		"pelican_serve_batch_size",
		"pelican_runtime_goroutines",
		"pelican_runtime_uptime_seconds",
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from /metrics", name)
		}
		if f.Help == "" || f.Type == "" {
			t.Fatalf("family %s missing HELP or TYPE metadata", name)
		}
	}

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

	// Every histogram family: group samples by label set and check the
	// cumulative-bucket invariants series by series.
	checked := 0
	for name, f := range fams {
		if f.Type != "histogram" {
			continue
		}
		for _, series := range promSeriesKeys(f) {
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

// promSeriesKeys returns the distinct non-le label sets of a family's
// samples, so each histogram series can be checked independently.
func promSeriesKeys(f *obs.PromFamily) []map[string]string {
	seen := map[string]map[string]string{}
	for _, s := range f.Samples {
		key := ""
		labels := map[string]string{}
		for k, v := range s.Labels {
			if k == "le" {
				continue
			}
			labels[k] = v
		}
		for _, k := range []string{"slot", "code", "model", "version", "engine"} {
			if v, ok := labels[k]; ok {
				key += k + "=" + v + ";"
			}
		}
		if _, ok := seen[key]; !ok {
			seen[key] = labels
		}
	}
	out := make([]map[string]string, 0, len(seen))
	for _, labels := range seen {
		out = append(out, labels)
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
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect-batch", bytes.NewReader(b))
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
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/detect-batch", strings.NewReader("{not json"))
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
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect-batch", strings.NewReader("{not json"))
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
