package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// The expectations are what Python's statistics.quantiles(v, n=4)
// prints for the same input — the driver's arithmetic.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{20, 10}, 7.5, 22.5},
		{[]float64{2.5, 3.1, 2.7, 2.9, 3.3, 2.6, 2.8}, 2.6, 3.1},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

// One stalled window must move a windowed median by at most one vote.
func TestWindowedMedianShrugsOffOneBadWindow(t *testing.T) {
	var obs []timedValue
	for w := 0; w < 10; w++ {
		for i := 0; i < 20; i++ {
			v := 2.0
			if w == 4 {
				v = 50 // the hiccup
			}
			obs = append(obs, timedValue{at: float64(w) + float64(i)/20, v: v})
		}
	}
	obs = append(obs, timedValue{at: 10.5, v: 1000}, timedValue{at: -1, v: 1000}) // outside the phase
	p95 := func(v []float64) float64 { return percentile(v, 0.95) }
	if got := windowedMedian(obs, 10, 10, p95); got != 2 {
		t.Errorf("windowed p95 = %g, want 2", got)
	}
	if got := percentile(sortedValues(obs[:200]), 0.95); got != 50 {
		t.Errorf("whole-phase p95 = %g, want 50 (the hiccup shows without windows)", got)
	}
}

// An open loop must keep sending on schedule while the server stalls,
// charge the stall to every request it delayed (latency from the due
// time), skip nothing, and report its own lateness. The margins are
// wide because CI boxes stall too.
func TestOpenLoopChargesAStallFromDueTime(t *testing.T) {
	const (
		rate     = 500.0
		stall    = 200 * time.Millisecond
		stallSeq = 50 // due at 100 ms; the stall lasts until 300 ms at least
	)
	dur := 600 * time.Millisecond
	schedule := evenSchedule(rate, dur)
	if len(schedule) != 300 {
		t.Fatalf("schedule has %d requests, want 300", len(schedule))
	}
	var server sync.Mutex // a one-at-a-time scorer
	calls := make([]int, len(schedule))
	call := func(seq int) (outcome, string) {
		server.Lock()
		defer server.Unlock()
		calls[seq]++
		if seq == stallSeq {
			time.Sleep(stall)
		}
		return outOK, ""
	}
	res := runOpen(schedule, call)
	if len(res) != len(schedule) {
		t.Fatalf("%d results for %d scheduled requests", len(res), len(schedule))
	}
	for i, r := range res {
		if calls[i] != 1 {
			t.Fatalf("request %d sent %d times", i, calls[i])
		}
		if r.due != schedule[i] || r.sent < r.due || r.done < r.sent || r.out != outOK {
			t.Fatalf("request %d: due %v (scheduled %v), sent %v, done %v, outcome %d", i, r.due, schedule[i], r.sent, r.done, r.out)
		}
	}
	stallEnd := schedule[stallSeq] + stall
	// Requests due early in the stall were sent during it, not after...
	for _, i := range []int{55, 65, 75} {
		if res[i].sent > stallEnd-50*time.Millisecond {
			t.Errorf("request %d was due at %v and sent at %v: the generator waited for the stalled server", i, res[i].due, res[i].sent)
		}
	}
	// ...and each waited out what was left of it, counted from its due time.
	for _, i := range []int{51, 75, 100, 140} {
		left := stallEnd - schedule[i]
		if lat := res[i].done - res[i].due; lat < left-time.Millisecond {
			t.Errorf("request %d: latency %v from its due time, want at least the %v of stall left", i, lat, left)
		}
	}
	sum := summarizeOpen(res, dur)
	if sum.counts.attempted != 300 || sum.counts.ok != 300 {
		t.Errorf("counts = %+v, want 300 attempted and ok", sum.counts)
	}
	if sum.max < 190 {
		t.Errorf("max latency %g ms does not show the 200 ms stall", sum.max)
	}
	if sum.lateMaxUS < 0 || sum.lateP99US > sum.lateMaxUS {
		t.Errorf("lateness p99 %g, max %g", sum.lateP99US, sum.lateMaxUS)
	}
	if sum.inflightMax < 40 {
		t.Errorf("in-flight peaked at %d; about 100 requests pile up behind a 200 ms stall at 500/s", sum.inflightMax)
	}
}

func TestClosedLoopSendsOnlyAfterTheReply(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	res := runClosed(3, 50*time.Millisecond, func(seq int) (outcome, string) {
		mu.Lock()
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return outOK, ""
	})
	if peak > 3 {
		t.Errorf("%d requests in flight from 3 closed-loop clients", peak)
	}
	if len(res) < 3 {
		t.Errorf("only %d requests from 3 clients", len(res))
	}
	for i, r := range res {
		if r.due != r.sent || r.done < r.sent {
			t.Errorf("request %d: due %v, sent %v, done %v", i, r.due, r.sent, r.done)
		}
	}
}

// Throughput counts only requests with correct verdicts, by the window
// they completed in, and is the median window's rate.
func TestClosedRPS(t *testing.T) {
	var res []reqResult
	perWindow := []int{10, 10, 2, 10, 10} // one starved window
	for w, n := range perWindow {
		for i := 0; i < n; i++ {
			res = append(res, reqResult{done: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond})
		}
	}
	res = append(res, reqResult{done: 1500 * time.Millisecond, out: outMismatch}, reqResult{done: 6 * time.Second})
	if got, want := closedRPS(res, 5*time.Second, 32), 10*32.0; got != want {
		t.Errorf("closedRPS = %g, want %g", got, want)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := poissonSchedule(1000, 2*time.Second, 7)
	b := poissonSchedule(1000, 2*time.Second, 7)
	c := poissonSchedule(1000, 2*time.Second, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= 2*time.Second {
		t.Errorf("arrival at %v is outside the phase", last)
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := make([]reqResult, 100)
	growing := make([]reqResult, 100)
	for i := range steady {
		steady[i].inflight = 3
		growing[i].inflight = int32(i)
	}
	if backlogGrowing(steady) {
		t.Error("steady in-flight reported as growing")
	}
	if !backlogGrowing(growing) {
		t.Error("linearly growing in-flight not reported")
	}
}

// BENCHMARK.json is what the PR driver reads; the tables in catalog.go
// are what the program reports. They must name the same things.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the catalogue %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is catalogued twice", d.Name)
		}
		seen[d.Name] = true
	}
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must be catalogued with the largest bound (%g)", largest)
	}
}

func TestDriverLineShape(t *testing.T) {
	res := &runResult{Workload: "w", Metrics: map[string]float64{"setup_s": 0.5}, Attempted: 10, Correct: true}
	b, err := json.Marshal(driverLine(res))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("driver line keys: %s", b)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) || ms["setup_s"].Value != 0.5 || ms["setup_s"].Unit != "s" {
		t.Errorf("metrics: %s", got["metrics"])
	}
}

func TestParseFlagsAcceptsTheDriversArguments(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "lunet_nsl_wire_b1", "--seed", "7", "--seconds", "20", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "lunet_nsl_wire_b1" || o.seed != 7 || o.seconds != 20 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"--repeat", "0"}, {"stray"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if err := run([]string{"-workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload ran")
	}
}

// The smoke drives every workload through both passes at a fraction of
// a second each — trained model, in-process server on both planes, both
// public clients, /metrics scrape, engine child, span file — so a
// public-API change that would break the benchmark fails here.
func TestCheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Residual-41 and round-trips its 55 MB artifact")
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-check", "-trace-out", spans}, &out); err != nil {
		t.Fatalf("bench -check: %v\n%s", err, out.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var doc struct {
		Env     string
		Results []runResult
	}
	if err := json.Unmarshal(lines[len(lines)-1], &doc); err != nil {
		t.Fatalf("last line is not the result document: %v", err)
	}
	if !bytes.HasPrefix(lines[0], []byte("env: go=")) || doc.Env == "" {
		t.Errorf("output does not start with the env stamp: %s", lines[0])
	}
	if len(doc.Results) != 2*len(workloads) {
		t.Fatalf("%d results, want both passes of %d workloads", len(doc.Results), len(workloads))
	}
	for _, res := range doc.Results {
		defs := defsFor(res.Traced)
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, the catalogue lists %d", res.Workload, res.Traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (present %v)", res.Workload, d.Name, v, ok)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced=%v: correct %v, failed %d of %d", res.Workload, res.Traced, res.Correct, res.Failed, res.Attempted)
		}
		if res.Traced {
			if gap := res.Metrics["serve.conservation_gap"]; gap != 0 {
				t.Errorf("%s: conservation gap %g", res.Workload, gap)
			}
			continue
		}
		// The timed figures can legitimately read 0 here: under the race
		// detector a Residual-41 request outlasts the smoke's phases.
		for _, name := range []string{"setup_s", "net_bytes_per_record", "mem_live_mb"} {
			if res.Metrics[name] <= 0 {
				t.Errorf("%s: %s = %g, want a positive measurement", res.Workload, name, res.Metrics[name])
			}
		}
		if res.Metrics["ok_pct"] != 100 || res.Metrics["verdict_match_pct"] != 100 {
			t.Errorf("%s: ok_pct %g, verdict_match_pct %g", res.Workload, res.Metrics["ok_pct"], res.Metrics["verdict_match_pct"])
		}
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.End < s.Start || s.Phase == "" {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Name == "http.roundtrip" && s.Req < 0 {
			t.Errorf("http.roundtrip span %q was not joined to its request", s.XID)
		}
		names[s.Name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"client.request", "client.sched_lag", "client.call", "http.roundtrip"} {
		if names[name] == 0 {
			t.Errorf("no %s span in %v", name, names)
		}
	}
}
