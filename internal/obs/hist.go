// Package obs is the serving plane's observability layer: lock-free
// fixed-bucket histograms, request traces with stage-level spans kept in a
// bounded ring (the /debug/traces source), a leveled JSON logger, request
// IDs, and process runtime telemetry. It is dependency-free (stdlib only)
// and deliberately knows nothing about serving: the serve, adapt, and cmd
// layers thread its primitives through their own seams.
package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the request-latency histogram upper bounds in
// seconds, spanning sub-millisecond in-process scoring to multi-second
// overload tails.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// StageBuckets resolve the per-stage latency components, whose interesting
// range starts well below the request buckets: queue wait and batch
// assembly sit in the tens of microseconds when the plane is healthy, and
// only an overload or an injected stall pushes a stage past a millisecond.
var StageBuckets = []float64{
	0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// BatchSizeBuckets cover the dynamic batcher's flush sizes (records per
// flushed batch).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Histogram is a fixed-bucket Prometheus-style histogram with lock-free
// observation. Bounds are cumulative upper bounds in the observed unit
// (seconds for latencies, records for sizes); one implicit +Inf bucket is
// always appended.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	total   atomic.Int64
}

// NewHistogram builds a histogram over bounds. The bounds slice is
// retained and must be ascending and never mutated.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.total.Add(1)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// WritePromHeader writes one metric family's # HELP and # TYPE lines.
// Call it exactly once per family, before any sample lines — including
// when several label sets (e.g. per-slot histograms) share the family.
func WritePromHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteProm writes the histogram's sample lines (cumulative buckets, sum,
// count) for one label set. labels is the pre-rendered inner label list
// (e.g. `slot="live"`), empty for an unlabeled family; the caller has
// already written the family header via WritePromHeader.
func (h *Histogram) WriteProm(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.total.Load())
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.Sum(), name, labels, h.total.Load())
}
