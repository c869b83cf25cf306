package nids

import (
	"testing"
	"time"

	"repro/internal/flow"
)

func alertAt(src string, class int, at time.Time, score float64) Alert {
	return Alert{
		Flow:    flow.Flow{SrcIP: src},
		Verdict: Verdict{IsAttack: true, Class: class, Score: score},
		At:      at,
	}
}

func TestTriageAggregatesBursts(t *testing.T) {
	tr := NewTriage(10 * time.Second)
	base := time.Unix(1000, 0)
	// Five alerts from one source within the window → one incident.
	for i := 0; i < 5; i++ {
		tr.Observe(alertAt("203.0.1.1", 1, base.Add(time.Duration(i)*time.Second), float64(i)))
	}
	incidents := tr.Flush()
	if len(incidents) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incidents))
	}
	inc := incidents[0]
	if inc.AlertCount != 5 {
		t.Fatalf("incident has %d alerts, want 5", inc.AlertCount)
	}
	if inc.MaxScore != 4 {
		t.Fatalf("MaxScore %v, want 4", inc.MaxScore)
	}
	if !inc.LastSeen.Equal(base.Add(4 * time.Second)) {
		t.Fatalf("LastSeen %v wrong", inc.LastSeen)
	}
}

func TestTriageSplitsByGap(t *testing.T) {
	tr := NewTriage(5 * time.Second)
	base := time.Unix(2000, 0)
	tr.Observe(alertAt("10.0.0.1", 1, base, 1))
	tr.Observe(alertAt("10.0.0.1", 1, base.Add(3*time.Second), 1))
	// 20s gap exceeds the window: a new incident must open.
	tr.Observe(alertAt("10.0.0.1", 1, base.Add(23*time.Second), 1))
	incidents := tr.Flush()
	if len(incidents) != 2 {
		t.Fatalf("got %d incidents, want 2", len(incidents))
	}
	if incidents[0].AlertCount != 2 || incidents[1].AlertCount != 1 {
		t.Fatalf("alert counts %d/%d, want 2/1", incidents[0].AlertCount, incidents[1].AlertCount)
	}
}

func TestTriageSplitsBySourceAndClass(t *testing.T) {
	tr := NewTriage(time.Minute)
	base := time.Unix(3000, 0)
	tr.Observe(alertAt("a", 1, base, 1))
	tr.Observe(alertAt("b", 1, base.Add(time.Second), 1))
	tr.Observe(alertAt("a", 2, base.Add(2*time.Second), 1))
	incidents := tr.Flush()
	if len(incidents) != 3 {
		t.Fatalf("got %d incidents, want 3 (distinct src/class pairs)", len(incidents))
	}
}

func TestTriageFlushOrdersByFirstSeen(t *testing.T) {
	tr := NewTriage(time.Second)
	base := time.Unix(4000, 0)
	tr.Observe(alertAt("late", 1, base.Add(time.Hour), 1))
	tr.Observe(alertAt("early", 1, base, 1))
	incidents := tr.Flush()
	if incidents[0].SrcIP != "early" || incidents[1].SrcIP != "late" {
		t.Fatalf("incidents not ordered by FirstSeen: %+v", incidents)
	}
	if tr.OpenCount() != 0 {
		t.Fatalf("OpenCount %d after Flush, want 0", tr.OpenCount())
	}
}

func TestCompressionRatio(t *testing.T) {
	incidents := []Incident{{AlertCount: 8}, {AlertCount: 2}}
	if got := CompressionRatio(incidents); got != 5 {
		t.Fatalf("CompressionRatio = %v, want 5", got)
	}
	if got := CompressionRatio(nil); got != 0 {
		t.Fatalf("empty CompressionRatio = %v, want 0", got)
	}
}

// OpenCount returns the number of currently-open incidents.
func (t *Triage) OpenCount() int { return len(t.open) }
