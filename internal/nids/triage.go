package nids

import (
	"fmt"
	"sort"
	"time"
)

// Incident is a group of related alerts the security team reviews as one
// case — the paper's Fig. 1 shows alerts flowing to a human team, and raw
// per-flow alerts during an attack campaign would swamp it (§VI: false
// alarms "adding unnecessary workload to the security team").
type Incident struct {
	ID         int
	SrcIP      string
	Class      int
	FirstSeen  time.Time
	LastSeen   time.Time
	AlertCount int
	// MaxScore is the strongest detector score observed.
	MaxScore float64
}

// Triage aggregates alerts into incidents: consecutive alerts from the
// same source IP and predicted class within Window collapse into one
// incident. It is not safe for concurrent use; feed it from the pipeline's
// single alert collector.
type Triage struct {
	// Window is the maximum gap between alerts of one incident.
	Window time.Duration

	nextID int
	open   map[string]*Incident // keyed by srcIP/class
	closed []Incident
}

// NewTriage constructs a Triage with the given aggregation window.
func NewTriage(window time.Duration) *Triage {
	if window <= 0 {
		window = 30 * time.Second
	}
	return &Triage{Window: window, open: make(map[string]*Incident)}
}

// Observe folds one alert into the incident state.
func (t *Triage) Observe(a Alert) {
	key := fmt.Sprintf("%s/%d", a.Flow.SrcIP, a.Verdict.Class)
	inc, ok := t.open[key]
	if ok && a.At.Sub(inc.LastSeen) <= t.Window {
		inc.LastSeen = a.At
		inc.AlertCount++
		if a.Verdict.Score > inc.MaxScore {
			inc.MaxScore = a.Verdict.Score
		}
		return
	}
	if ok {
		// Stale: close it out and open a fresh incident.
		t.closed = append(t.closed, *inc)
	}
	t.nextID++
	t.open[key] = &Incident{
		ID:         t.nextID,
		SrcIP:      a.Flow.SrcIP,
		Class:      a.Verdict.Class,
		FirstSeen:  a.At,
		LastSeen:   a.At,
		AlertCount: 1,
		MaxScore:   a.Verdict.Score,
	}
}

// Flush closes all open incidents and returns the full incident list,
// ordered by first-seen time.
func (t *Triage) Flush() []Incident {
	for _, inc := range t.open {
		t.closed = append(t.closed, *inc)
	}
	t.open = make(map[string]*Incident)
	out := make([]Incident, len(t.closed))
	copy(out, t.closed)
	sort.Slice(out, func(a, b int) bool { return out[a].FirstSeen.Before(out[b].FirstSeen) })
	return out
}

// CompressionRatio reports how many raw alerts were folded per incident —
// the workload reduction delivered to the security team.
func CompressionRatio(incidents []Incident) float64 {
	if len(incidents) == 0 {
		return 0
	}
	alerts := 0
	for _, inc := range incidents {
		alerts += inc.AlertCount
	}
	return float64(alerts) / float64(len(incidents))
}
