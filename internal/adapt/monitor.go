// Package adapt closes the loop between a running detection pipeline and
// the model it scores with: streaming drift monitors watch the score,
// alert-rate, and feature distributions a pipeline's feedback tap emits;
// when a monitored statistic drifts past threshold, the current model is
// warm-start retrained on a sliding buffer of recent labeled flows and the
// result is published as a new content-addressed artifact that hot-reloads
// into the scoring server — turning "train once, serve forever" into a
// self-healing deployment (the mitigation the paper's §VI "reason two"
// calls for when a fixed notion of normal stops being representative).
package adapt

import (
	"fmt"
	"math"
	"sync"
)

// DefaultThreshold is the |z| a monitor trips at unless configured
// otherwise.
const DefaultThreshold = 6

// MonitorConfig tunes one streaming drift monitor.
type MonitorConfig struct {
	// RefWindow is how many observations are frozen as the reference
	// distribution after construction or Reset. Default 512.
	RefWindow int
	// Window is the length of the sliding current window compared against
	// the reference. Default 512.
	Window int
	// Threshold is the |z| statistic that trips the monitor. The statistic
	// is a two-sample z-test on window means, so the threshold is in units
	// of combined standard errors. Default 6. The z-test assumes i.i.d.
	// observations; bursty signals (attack campaigns autocorrelate, so a
	// window is not an i.i.d. sample) run hotter than the ideal and need a
	// raised threshold — or better, feed the monitor a conditioned stream
	// whose mixture weights campaigns cannot move, as the adaptation Loop
	// does by monitoring scores separately per verdict.
	Threshold float64
	// cooldown is how many observations the monitor stays quiet after a
	// trip before it may trip again, bounding the retrain rate when drift
	// persists. Window, unless an in-package test stretches it.
	cooldown int
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.RefWindow <= 0 {
		c.RefWindow = 512
	}
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.cooldown <= 0 {
		c.cooldown = c.Window
	}
	return c
}

// Monitor is a streaming drift detector over one scalar signal, fed by a
// live pipeline one observation at a time. The first RefWindow
// observations after construction or Reset are frozen as the reference
// distribution; after that, a sliding window of the most recent Window
// observations is compared against the reference with a two-sample z-test
// on means, and the monitor trips when |z| exceeds Threshold.
//
// All methods are safe for concurrent use; Observe is cheap enough for a
// scoring hot path (a ring-buffer update and a handful of floats).
type Monitor struct {
	cfg MonitorConfig

	mu sync.Mutex
	// Reference accumulation (Welford).
	refN    int
	refMean float64
	refM2   float64
	// Sliding current window.
	ring       []float64
	head, n    int
	sum, sumsq float64
	// Trip bookkeeping.
	quiet int
	trips int64
}

// NewMonitor builds a monitor; zero-valued config fields get defaults.
func NewMonitor(cfg MonitorConfig) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{cfg: cfg, ring: make([]float64, cfg.Window)}
}

// Observe feeds one value and reports the current drift statistic plus
// whether this observation tripped the monitor. The statistic is 0 until
// both the reference and the current window are full.
func (m *Monitor) Observe(v float64) (z float64, tripped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if m.refN < m.cfg.RefWindow {
		// Still collecting the reference distribution.
		m.refN++
		d := v - m.refMean
		m.refMean += d / float64(m.refN)
		m.refM2 += d * (v - m.refMean)
		return 0, false
	}

	// Slide the current window.
	if m.n == len(m.ring) {
		old := m.ring[m.head]
		m.sum -= old
		m.sumsq -= old * old
	} else {
		m.n++
	}
	m.ring[m.head] = v
	m.sum += v
	m.sumsq += v * v
	m.head = (m.head + 1) % len(m.ring)

	if m.n < len(m.ring) {
		return 0, false
	}
	z = m.stat()
	if m.quiet > 0 {
		m.quiet--
		return z, false
	}
	if math.Abs(z) > m.cfg.Threshold {
		m.trips++
		m.quiet = m.cfg.cooldown
		return z, true
	}
	return z, false
}

// stat computes the two-sample z statistic; callers hold m.mu.
func (m *Monitor) stat() float64 {
	refVar := 0.0
	if m.refN > 1 {
		refVar = m.refM2 / float64(m.refN-1)
	}
	curN := float64(m.n)
	curMean := m.sum / curN
	curVar := (m.sumsq - m.sum*m.sum/curN) / math.Max(curN-1, 1)
	if curVar < 0 {
		curVar = 0 // float cancellation on near-constant signals
	}
	denom := math.Sqrt(refVar/float64(m.refN) + curVar/curN)
	if denom < 1e-12 {
		denom = 1e-12
	}
	return (curMean - m.refMean) / denom
}

// Stat returns the current drift statistic (0 while windows are filling).
func (m *Monitor) Stat() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.refN < m.cfg.RefWindow || m.n < len(m.ring) {
		return 0
	}
	return m.stat()
}

// Reset discards the reference and current windows so the monitor
// re-baselines on whatever it observes next — called after a retrained
// model is published, because the new model's score distribution is the
// new normal.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refN, m.refMean, m.refM2 = 0, 0, 0
	m.head, m.n, m.sum, m.sumsq = 0, 0, 0, 0
	m.quiet = 0
}

// MonitorState is a Monitor's complete streaming state, exportable for
// checkpointing and restorable into a monitor with the same window
// geometry. A checkpoint carries the integer fields as JSON and the
// float fields, which may be NaN or ±Inf, as tensors.
type MonitorState struct {
	RefN    int
	RefMean float64   `json:"-"`
	RefM2   float64   `json:"-"`
	Ring    []float64 `json:"-"`
	Head    int
	N       int
	Sum     float64 `json:"-"`
	SumSq   float64 `json:"-"`
	Quiet   int
	Trips   int64
}

// State snapshots the monitor for a checkpoint. The ring is copied, so
// the snapshot stays stable while the monitor keeps observing.
func (m *Monitor) State() MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	ring := make([]float64, len(m.ring))
	copy(ring, m.ring)
	return MonitorState{
		RefN: m.refN, RefMean: m.refMean, RefM2: m.refM2,
		Ring: ring, Head: m.head, N: m.n, Sum: m.sum, SumSq: m.sumsq,
		Quiet: m.quiet, Trips: m.trips,
	}
}

// RestoreState replaces the monitor's streaming state with a checkpoint,
// so a restarted sidecar resumes its drift window instead of re-warming
// reference and current windows from scratch. A state whose ring length
// differs from the configured window (the config changed across the
// restart) or whose indices are out of range is rejected, leaving the
// monitor untouched.
func (m *Monitor) RestoreState(st MonitorState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(st.Ring) != len(m.ring) {
		return fmt.Errorf("adapt: checkpoint window %d does not match configured window %d", len(st.Ring), len(m.ring))
	}
	if st.Head < 0 || st.Head >= len(m.ring) || st.N < 0 || st.N > len(m.ring) || st.RefN < 0 {
		return fmt.Errorf("adapt: checkpoint monitor state out of range (head=%d n=%d refN=%d)", st.Head, st.N, st.RefN)
	}
	copy(m.ring, st.Ring)
	m.refN, m.refMean, m.refM2 = st.RefN, st.RefMean, st.RefM2
	m.head, m.n, m.sum, m.sumsq = st.Head, st.N, st.Sum, st.SumSq
	m.quiet, m.trips = st.Quiet, st.Trips
	return nil
}
