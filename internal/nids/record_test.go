package nids

// Tests of the pipeline's internal accounting; the pipeline's end-to-end
// tests are in the external package (nids_test.go).

import (
	"context"
	"testing"

	"repro/internal/flow"
)

// TestAlertCountedOnlyAfterDelivery pins the cancellation-accounting fix:
// an alert abandoned because the context died mid-enqueue must not be
// counted as delivered — it lands in DroppedAlerts instead.
func TestAlertCountedOnlyAfterDelivery(t *testing.T) {
	p := New(&SignatureDetector{}, Config{Workers: 1}) // record never calls the detector

	ctx, cancel := context.WithCancel(context.Background())
	cancel()                   // already dead: every enqueue on a full channel must abandon
	alerts := make(chan Alert) // unbuffered and never read
	f := flow.Flow{TrueClass: 1}
	p.record(ctx, &f, Verdict{IsAttack: true, Class: 1}, alerts)

	st := p.Stats()
	if st.Alerts != 0 {
		t.Fatalf("undelivered alert was counted: Alerts=%d", st.Alerts)
	}
	if st.DroppedAlerts != 1 {
		t.Fatalf("DroppedAlerts=%d, want 1", st.DroppedAlerts)
	}
	if st.TruePos != 1 || st.Processed != 1 {
		t.Fatalf("detection counters must still move: %+v", st)
	}
}

// TestFailedVerdictsExcludedFromCounters pins the no-information rule: a
// Failed verdict (remote scorer outage) moves Processed and ScoreFailures
// but no detection counter, and never raises an alert.
func TestFailedVerdictsExcludedFromCounters(t *testing.T) {
	p := New(&SignatureDetector{}, Config{Workers: 1}) // record never calls the detector
	alerts := make(chan Alert, 4)
	f := flow.Flow{TrueClass: 1}
	p.record(context.Background(), &f, Verdict{IsAttack: true, Failed: true}, alerts)

	st := p.Stats()
	if st.Processed != 1 || st.ScoreFailures != 1 {
		t.Fatalf("processed=%d failures=%d, want 1/1", st.Processed, st.ScoreFailures)
	}
	if st.TruePos+st.FalseAlarms+st.Missed+st.TrueNeg != 0 {
		t.Fatalf("failed verdict moved detection counters: %+v", st)
	}
	if st.Alerts != 0 || len(alerts) != 0 {
		t.Fatal("failed verdict raised an alert")
	}
}

func TestStatsSnapshotMath(t *testing.T) {
	var s Stats
	s.truePos.Store(80)
	s.missed.Store(20)
	s.falseAlarm.Store(5)
	s.trueNeg.Store(95)
	snap := s.Snapshot()
	if snap.DR() != 0.8 {
		t.Fatalf("DR = %v, want 0.8", snap.DR())
	}
	if snap.FAR() != 0.05 {
		t.Fatalf("FAR = %v, want 0.05", snap.FAR())
	}
	if snap.String() == "" {
		t.Fatal("empty String()")
	}
}
