package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary the bench can see from
// outside. Spans of one request share Req, the request's sequence number
// within its phase; an HTTP exchange is recorded under the X-Request-Id
// the serve client generated (the id the server's own /debug/traces
// carries) and joined to its request when the log is written.
type span struct {
	Phase  string        `json:"phase"`
	Req    int64         `json:"req"`
	XID    string        `json:"x_request_id,omitempty"`
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log is a
// valid, permanently disabled one, so untraced runs carry no branches.
type spanLog struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	phase string
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) enabled() bool { return l != nil && l.on.Load() }

// now is the current offset from the log's epoch.
func (l *spanLog) now() time.Duration { return time.Since(l.epoch) }

// begin turns recording on for one named phase; end turns it off.
func (l *spanLog) begin(phase string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.phase = phase
	l.mu.Unlock()
	l.on.Store(true)
}

func (l *spanLog) end() {
	if l != nil {
		l.on.Store(false)
	}
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	s.Phase = l.phase
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// offset is now's offset on an enabled log and 0 otherwise: the value
// a phase passes back to addPhase.
func (l *spanLog) offset() time.Duration {
	if !l.enabled() {
		return 0
	}
	return l.now()
}

// addPhase records the span tree of every request of a finished phase:
// client.request (due → done) with children client.sched_lag (due →
// sent) and client.call (sent → returned). The phase's results already
// hold those instants, so request spans cost the run nothing; only the
// HTTP exchange is timed while it happens.
func (l *spanLog) addPhase(phaseStart time.Duration, res []reqResult) {
	if !l.enabled() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for seq, r := range res {
		due, sent, done := phaseStart+r.due, phaseStart+r.sent, phaseStart+r.done
		l.spans = append(l.spans,
			span{Phase: l.phase, Req: int64(seq), Name: "client.request", Start: due, End: done},
			span{Phase: l.phase, Req: int64(seq), Name: "client.sched_lag", Parent: "client.request", Start: due, End: sent},
			span{Phase: l.phase, Req: int64(seq), XID: r.xid, Name: "client.call", Parent: "client.request", Start: sent, End: done})
	}
}

// writeFile resolves each http.roundtrip span to its request through
// the shared X-Request-Id and writes the log as JSON lines.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct{ phase, xid string }
	byXID := make(map[key]int64)
	for _, s := range l.spans {
		if s.Name == "client.call" && s.XID != "" {
			byXID[key{s.Phase, s.XID}] = s.Req
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if s.Req < 0 {
			if req, ok := byXID[key{s.Phase, s.XID}]; ok {
				s.Req = req
			}
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
