package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.0005+0.002+0.05+5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "x_seconds", `slot="live"`)
	s := buf.String()
	for _, want := range []string{
		`x_seconds_bucket{slot="live",le="0.001"} 1`,
		`x_seconds_bucket{slot="live",le="0.01"} 2`,
		`x_seconds_bucket{slot="live",le="0.1"} 3`,
		`x_seconds_bucket{slot="live",le="+Inf"} 4`,
		`x_seconds_count{slot="live"} 4`,
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("exposition missing %q:\n%s", want, s)
		}
	}
}

// TestHistogramConcurrentSum proves the CAS-accumulated sum loses nothing
// under contention (run with -race).
func TestHistogramConcurrentSum(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got < 7.999 || got > 8.001 {
		t.Fatalf("sum = %g, want ~8", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if q := h.Quantile(0.5); q > 0.01 {
		t.Fatalf("p50 = %g, want <= 0.01", q)
	}
	if q := h.Quantile(0.99); q < 0.1 || q > 1 {
		t.Fatalf("p99 = %g, want in (0.1, 1]", q)
	}
}

func TestTraceSpansAndFinish(t *testing.T) {
	tr := NewTrace("abc123", "/v2/detect-batch")
	tr.SetSlot("live", "v1")
	start := tr.Start
	tr.Span("infer", start.Add(2*time.Millisecond), 5*time.Millisecond, "replica", "0")
	tr.Span("admit", start, time.Millisecond)
	tr.Finish(200, "")
	if tr.Spans[0].Name != "admit" || tr.Spans[1].Name != "infer" {
		t.Fatalf("spans not ordered by start: %+v", tr.Spans)
	}
	if tr.Spans[1].Attrs["replica"] != "0" {
		t.Fatalf("span attrs lost: %+v", tr.Spans[1])
	}
	if got := tr.StageDur("infer"); got != 5*time.Millisecond {
		t.Fatalf("StageDur(infer) = %s", got)
	}
	// Post-finish appends must be dropped, not race with readers.
	tr.Span("late", start, time.Second)
	if len(tr.Spans) != 2 {
		t.Fatalf("post-finish span was appended")
	}
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Nil traces are safe everywhere.
	var nilT *Trace
	nilT.Span("x", start, 0)
	nilT.SetSlot("a", "b")
	nilT.Finish(0, "")
}

func TestTraceRingOverwritesOldest(t *testing.T) {
	r := NewTraceRing(16)
	for i := 0; i < 40; i++ {
		tr := NewTrace(NewID(), "/x")
		tr.Finish(200, "")
		r.Put(tr)
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("ring holds %d traces, want 16", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start.After(snap[i-1].Start) {
			t.Fatalf("snapshot not newest-first at %d", i)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace(NewID(), "/x")
				tr.Finish(200, "")
				r.Put(tr)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo).With("slot", "live", "version", "v1")
	log.Debug("dropped")
	log.Info("published", "retrains", 3, "dur", 1500*time.Millisecond, "err", error(nil))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 line (debug filtered), got %d:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec["level"] != "info" || rec["msg"] != "published" {
		t.Fatalf("bad level/msg: %v", rec)
	}
	if rec["slot"] != "live" || rec["version"] != "v1" {
		t.Fatalf("With fields missing: %v", rec)
	}
	if rec["retrains"] != float64(3) || rec["dur"] != "1.5s" {
		t.Fatalf("record fields wrong: %v", rec)
	}
	if _, ok := rec["ts"]; !ok {
		t.Fatalf("no timestamp: %v", rec)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var log *Logger
	log.Info("x", "k", "v")
	log.With("a", 1).Error("y")
	if log.Enabled(LevelError) {
		t.Fatal("nil logger claims enabled")
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, LevelInfo)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				log.Info("m", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("interleaved/corrupt line: %q", ln)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo,
	} {
		if got := ParseLevel(s); got != want {
			t.Fatalf("ParseLevel(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestWriteRuntimeProm(t *testing.T) {
	var buf bytes.Buffer
	WriteRuntimeProm(&buf, time.Now().Add(-time.Minute))
	s := buf.String()
	for _, want := range []string{
		"pelican_runtime_goroutines", "pelican_runtime_heap_alloc_bytes",
		"pelican_runtime_gc_pause_seconds_total", "pelican_runtime_uptime_seconds",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, s)
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// linear interpolation within the winning bucket — the same estimate
// Prometheus's histogram_quantile computes. Returns 0 with no
// observations; values in the +Inf bucket clamp to the largest bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		cum += c
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if c == 0 {
				return ub
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (ub-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Len reports how many traces the ring currently holds.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	n := int(r.next.Load())
	if n > len(r.slots) {
		n = len(r.slots)
	}
	return n
}
