package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header that carries a request's trace ID.
// The server honors an incoming value (callers correlate their own logs),
// generates one when absent, and echoes it on every response — including
// error bodies.
const RequestIDHeader = "X-Request-Id"

// NewID returns a 16-hex-char random ID for traces and requests. It
// prefers crypto/rand and degrades to math/rand if the entropy source
// fails — an ID is a correlation handle, not a secret.
func NewID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// Span is one timed stage inside a trace. Offsets and durations are
// microseconds relative to the trace start — coarse enough to render, fine
// enough to attribute a sub-millisecond stage.
type Span struct {
	// Name is the stage: admit, queue_wait, batch_assembly, infer, encode.
	Name string `json:"name"`
	// StartUS is the offset from the trace's start, in microseconds.
	StartUS int64 `json:"start_us"`
	// DurUS is the span's duration in microseconds.
	DurUS int64 `json:"dur_us"`
	// Attrs carry span-scoped facts (replica index, batch size, injected
	// chaos delay, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Trace is one request's journey through the serving plane: identity,
// outcome, and the stage spans recorded along the way. A trace is mutable
// (mutex-guarded span appends from handler and worker goroutines) until
// Finish, after which it is immutable — the ring stores only finished
// traces, so readers marshal them without locks.
type Trace struct {
	ID string `json:"id"`
	// ParentID links an async child (a shadow-mirror trace) to the live
	// request that spawned it.
	ParentID string `json:"parent_id,omitempty"`
	// Endpoint is the serving endpoint the request entered through.
	Endpoint string `json:"endpoint"`
	// Slot and Version identify the model generation that answered.
	Slot    string `json:"slot,omitempty"`
	Version string `json:"version,omitempty"`
	// Records is how many flow records the request carried.
	Records int `json:"records"`
	// Status is the HTTP status answered; Error the error body's message.
	Status int       `json:"status"`
	Error  string    `json:"error,omitempty"`
	Start  time.Time `json:"start"`
	// DurUS is the end-to-end duration in microseconds.
	DurUS int64  `json:"dur_us"`
	Spans []Span `json:"spans"`

	mu   sync.Mutex
	done bool
}

// NewTrace starts a trace for endpoint with the given ID.
func NewTrace(id, endpoint string) *Trace {
	return &Trace{ID: id, Endpoint: endpoint, Start: time.Now()}
}

// SetSlot records which model generation answered. Safe to call
// concurrently with span appends.
func (t *Trace) SetSlot(slot, version string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Slot, t.Version = slot, version
	t.mu.Unlock()
}

// Span appends one stage span. attrs are alternating key, value pairs.
// Nil traces and finished traces drop the span — a worker finishing a
// straggler batch after the request answered must not mutate a published
// trace.
func (t *Trace) Span(name string, start time.Time, d time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	sp := Span{Name: name, StartUS: start.Sub(t.Start).Microseconds(), DurUS: d.Microseconds()}
	if len(attrs) >= 2 {
		sp.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.mu.Lock()
	if !t.done {
		t.Spans = append(t.Spans, sp)
	}
	t.mu.Unlock()
}

// Finish seals the trace with its outcome and orders its spans by start
// offset. After Finish the trace is immutable and safe to publish.
func (t *Trace) Finish(status int, errMsg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done = true
	t.Status = status
	t.Error = errMsg
	t.DurUS = time.Since(t.Start).Microseconds()
	sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].StartUS < t.Spans[j].StartUS })
	t.mu.Unlock()
}

// StageDur sums the durations of the named spans — how much of the trace
// the stage accounts for.
func (t *Trace) StageDur(name string) time.Duration {
	var us int64
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			us += t.Spans[i].DurUS
		}
	}
	return time.Duration(us) * time.Microsecond
}

// TraceRing is a bounded lock-free ring of finished traces: Put overwrites
// the oldest entry once full, Snapshot reads whatever is currently held.
// Writers never block and never allocate beyond the trace itself.
type TraceRing struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

// NewTraceRing builds a ring holding up to n traces (n is rounded up to a
// power of two; minimum 16).
func NewTraceRing(n int) *TraceRing {
	capacity := 16
	for capacity < n {
		capacity <<= 1
	}
	return &TraceRing{slots: make([]atomic.Pointer[Trace], capacity)}
}

// Put publishes a finished trace, displacing the oldest entry when full.
func (r *TraceRing) Put(t *Trace) {
	if r == nil || t == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i&uint64(len(r.slots)-1)].Store(t)
}

// Snapshot returns the held traces, newest first.
func (r *TraceRing) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}
