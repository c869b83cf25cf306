package resilience

import (
	"testing"
	"time"
)

// fakeClock is the breaker's time seam for deterministic cool-down tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBreakerLifecycle walks the full state machine on a fake clock:
// closed absorbs sub-threshold failures, the threshold trips it open, open
// fast-fails until the cool-down, half-open admits exactly one probe at a
// time, a probe failure re-opens, and enough probe successes re-close.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := &Breaker{FailureThreshold: 3, OpenFor: time.Second, HalfOpenSuccesses: 2, now: clk.now}

	// Sub-threshold failures with a success in between never trip.
	for _, ok := range []bool{false, false, true, false, false} {
		if !b.Allow() {
			t.Fatal("closed breaker refused a call")
		}
		b.Record(ok)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after interleaved failures, want closed", st)
	}

	// A third consecutive failure trips it.
	if !b.Allow() {
		t.Fatal("closed breaker refused the tripping call")
	}
	b.Record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after threshold failures, want open", st)
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}

	// Open: everything fast-fails until the cool-down elapses.
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the cool-down")
	}
	if got := b.ShortCircuits(); got != 1 {
		t.Fatalf("ShortCircuits() = %d, want 1", got)
	}

	// Cool-down over: exactly one probe at a time.
	clk.advance(time.Second)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state %s after cool-down, want half-open", st)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure re-opens (and re-arms the cool-down).
	b.Record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", st)
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("Opens() = %d after re-open, want 2", got)
	}

	// Recover: two successful probes (HalfOpenSuccesses) re-close.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("half-open breaker refused probe %d", i)
		}
		b.Record(true)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after successful probes, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused a call")
	}
	b.Record(true)
}

// TestBreakerZeroValueDefaults checks a zero-value breaker works with the
// documented defaults (threshold 5) rather than tripping instantly.
func TestBreakerZeroValueDefaults(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("call %d refused", i)
		}
		b.Record(false)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after 4 failures, default threshold is 5", st)
	}
	b.Allow()
	b.Record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after 5 failures, want open", st)
	}
}

// Opens reports how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 { return b.opens.Load() }
