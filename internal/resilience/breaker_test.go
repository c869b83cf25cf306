package resilience

import (
	"errors"
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
		if !b.allow() {
			t.Fatal("closed breaker refused a call")
		}
		b.record(ok)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after interleaved failures, want closed", st)
	}

	// A third consecutive failure trips it.
	if !b.allow() {
		t.Fatal("closed breaker refused the tripping call")
	}
	b.record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after threshold failures, want open", st)
	}
	if got := b.Opens(); got != 1 {
		t.Fatalf("Opens() = %d, want 1", got)
	}

	// Open: everything fast-fails until the cool-down elapses.
	if b.allow() {
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
	if !b.allow() {
		t.Fatal("half-open breaker refused the first probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure re-opens (and re-arms the cool-down).
	b.record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", st)
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("Opens() = %d after re-open, want 2", got)
	}

	// Recover: two successful probes (HalfOpenSuccesses) re-close.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("half-open breaker refused probe %d", i)
		}
		b.record(true)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after successful probes, want closed", st)
	}
	if !b.allow() {
		t.Fatal("re-closed breaker refused a call")
	}
	b.record(true)
}

// TestBreakerZeroValueDefaults checks a zero-value breaker works with the
// documented defaults (threshold 5) rather than tripping instantly.
func TestBreakerZeroValueDefaults(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < 4; i++ {
		if !b.allow() {
			t.Fatalf("call %d refused", i)
		}
		b.record(false)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after 4 failures, default threshold is 5", st)
	}
	b.allow()
	b.record(false)
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state %s after 5 failures, want open", st)
	}
}

// TestBreakerIgnoresStaleOutcomeWhenHalfOpen is the regression test for a
// straggler closing the circuit: a call admitted while the breaker was
// closed finishes after the breaker has tripped and admitted a half-open
// probe. Its success is evidence from before the trip — it must neither
// close the circuit nor free the probe slot while the real probe is still
// in flight.
func TestBreakerIgnoresStaleOutcomeWhenHalfOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := &Breaker{FailureThreshold: 2, OpenFor: time.Second, now: clk.now}
	errDown := errors.New("connection refused")
	admitted, release, probed := make(chan struct{}), make(chan struct{}), make(chan error)
	// The straggler: admitted closed, it finishes only once the breaker
	// has tripped and a probe is in flight.
	err := b.Call(func() error {
		for i := 0; i < 2; i++ {
			b.Call(func() error { return errDown })
		}
		clk.advance(time.Second)
		go func() { probed <- b.Call(func() error { close(admitted); <-release; return nil }) }()
		<-admitted
		return nil
	})
	if err != nil {
		t.Fatalf("straggler Call = %v, want nil", err)
	}
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state %s after a stale success, want half-open", st)
	}
	if err := b.Call(func() error { t.Error("second probe admitted while the first is in flight"); return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Call during the probe = %v, want ErrBreakerOpen", err)
	}
	close(release)
	if err := <-probed; err != nil {
		t.Fatalf("probe Call = %v, want nil", err)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state %s after the probe succeeded, want closed", st)
	}
}

// allow and record step the state machine one admission at a time, the
// way Call does around an attempt that finishes before the next trip: the
// outcome carries the current trip count, so it is never stale.
func (b *Breaker) allow() bool {
	_, ok := b.admit()
	return ok
}

func (b *Breaker) record(ok bool) { b.settle(b.opens.Load(), ok) }

// Opens reports how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 { return b.opens.Load() }
