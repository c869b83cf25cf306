package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/data"
)

// Ready reports whether both windows are full, i.e. the statistic is live.
func (m *Monitor) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refN >= m.cfg.RefWindow && m.n >= len(m.ring)
}

// Trips returns how many times the monitor has tripped since construction.
func (m *Monitor) Trips() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trips
}

func feed(m *Monitor, rng *rand.Rand, n int, mean, std float64) (tripped bool, lastZ float64) {
	for i := 0; i < n; i++ {
		z, t := m.Observe(mean + rng.NormFloat64()*std)
		lastZ = z
		if t {
			tripped = true
		}
	}
	return tripped, lastZ
}

func TestMonitorNoTripOnStationaryTraffic(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 256, Window: 256, Threshold: 8})
	rng := rand.New(rand.NewSource(1))
	if tripped, _ := feed(m, rng, 20000, 1.0, 0.5); tripped {
		t.Fatal("monitor tripped on a stationary stream")
	}
	if m.Trips() != 0 {
		t.Fatalf("trips = %d, want 0", m.Trips())
	}
}

func TestMonitorTripsOnMeanShift(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 256, Window: 256, Threshold: 8})
	rng := rand.New(rand.NewSource(2))
	feed(m, rng, 2000, 1.0, 0.5) // establish reference + window
	if !m.Ready() {
		t.Fatal("monitor not ready after 2000 stationary observations")
	}
	// A one-sigma mean shift must trip within one window of drifted data.
	tripped, z := feed(m, rng, 256, 1.5, 0.5)
	if !tripped {
		t.Fatalf("monitor did not trip on a 1σ mean shift (z=%.1f)", z)
	}
}

func TestMonitorTripsOnRateShift(t *testing.T) {
	// Binary signal: alert rate 3% -> 30% (an attack campaign of variants
	// the model half-misses would move it the other way; either direction
	// must trip on |z|).
	m := NewMonitor(MonitorConfig{RefWindow: 512, Window: 512, Threshold: 8})
	rng := rand.New(rand.NewSource(3))
	bin := func(p float64) float64 {
		if rng.Float64() < p {
			return 1
		}
		return 0
	}
	for i := 0; i < 4000; i++ {
		if _, tripped := m.Observe(bin(0.03)); tripped {
			t.Fatalf("tripped on stationary 3%% rate at %d", i)
		}
	}
	trippedAt := -1
	for i := 0; i < 512; i++ {
		if _, tripped := m.Observe(bin(0.30)); tripped {
			trippedAt = i
			break
		}
	}
	if trippedAt < 0 {
		t.Fatal("monitor did not trip on a 3%->30% rate shift within one window")
	}
}

func TestMonitorCooldownBoundsTripRate(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 128, Window: 128, Threshold: 6, cooldown: 1000})
	rng := rand.New(rand.NewSource(4))
	feed(m, rng, 1000, 0, 0.3)
	// Persistent hard drift: without cooldown this would trip constantly.
	tripped, _ := feed(m, rng, 1000, 5, 0.3)
	if !tripped {
		t.Fatal("no trip on hard drift")
	}
	if got := m.Trips(); got != 1 {
		t.Fatalf("trips = %d during cooldown window, want exactly 1", got)
	}
	// After the cooldown elapses the still-drifted stream trips again.
	tripped, _ = feed(m, rng, 1500, 5, 0.3)
	if !tripped {
		t.Fatal("no re-trip after cooldown elapsed")
	}
}

func TestMonitorResetRebaselines(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 128, Window: 128, Threshold: 8})
	rng := rand.New(rand.NewSource(5))
	feed(m, rng, 1000, 0, 0.3)
	tripped, _ := feed(m, rng, 300, 4, 0.3)
	if !tripped {
		t.Fatal("no trip on drift")
	}
	// Re-baseline: the drifted distribution becomes the new normal and
	// must no longer trip.
	m.Reset()
	if m.Ready() {
		t.Fatal("monitor still ready after Reset")
	}
	if tripped, _ := feed(m, rng, 5000, 4, 0.3); tripped {
		t.Fatal("re-baselined monitor tripped on its own reference distribution")
	}
}

func TestMonitorStatDirection(t *testing.T) {
	m := NewMonitor(MonitorConfig{RefWindow: 256, Window: 256, Threshold: 1e9}) // never trips
	rng := rand.New(rand.NewSource(6))
	feed(m, rng, 2000, 1, 0.5)
	feed(m, rng, 256, 0.2, 0.5)
	if z := m.Stat(); z >= 0 {
		t.Fatalf("downward shift produced z=%.2f, want negative", z)
	}
}

func TestFlowBufferSlidesAndSnapshots(t *testing.T) {
	b := NewFlowBuffer(4)
	for i := 0; i < 7; i++ {
		b.Add(dataRecord(i), i)
	}
	if b.Len() != 4 {
		t.Fatalf("len = %d, want 4", b.Len())
	}
	if b.Seen() != 7 {
		t.Fatalf("seen = %d, want 7", b.Seen())
	}
	recs, labels := b.Snapshot()
	for i, want := range []int{3, 4, 5, 6} {
		if labels[i] != want {
			t.Fatalf("snapshot labels = %v, want [3 4 5 6]", labels)
		}
		if recs[i].Numeric[0] != float64(want) {
			t.Fatalf("snapshot record %d carries %v", i, recs[i].Numeric)
		}
	}
}

func TestBalancedIndicesOversamplesMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 900 normal, 90 dos, 10 probe.
	labels := make([]int, 0, 1000)
	for i := 0; i < 900; i++ {
		labels = append(labels, 0)
	}
	for i := 0; i < 90; i++ {
		labels = append(labels, 1)
	}
	for i := 0; i < 10; i++ {
		labels = append(labels, 2)
	}
	idx := balancedIndices(rng, labels, 3)
	counts := make([]int, 3)
	for _, i := range idx {
		counts[labels[i]]++
	}
	// sqrt-balancing: 900 stays 900, 90 -> ~285, 10 -> ~95.
	if counts[0] != 900 {
		t.Fatalf("majority count %d, want 900", counts[0])
	}
	if counts[1] < 250 || counts[1] > 320 {
		t.Fatalf("dos count %d, want ~285", counts[1])
	}
	if counts[2] < 80 || counts[2] > 110 {
		t.Fatalf("probe count %d, want ~95", counts[2])
	}
}

func dataRecord(i int) data.Record { return data.Record{Numeric: []float64{float64(i)}} }
