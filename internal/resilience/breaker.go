// Package resilience is the client-side failure policy every caller that
// retries a remote call shares — serve.Client over HTTP, wire.Client over
// the binary plane, and the adaptation loop's publisher: which answers may
// be retried, which count as evidence the server is down, how long to back
// off, the one attempt loop that sleeps that backoff (Retry), and the
// circuit breaker that gates each attempt (Breaker.Call). It is a leaf —
// it imports nothing from this module — so any caller can use it without
// an import cycle.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states. Closed passes traffic; Open fast-fails everything until
// the cool-down elapses; HalfOpen admits a bounded number of probes whose
// outcomes decide between re-closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for logs and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ErrBreakerOpen is what Call returns for an attempt an open breaker
// fast-fails without running it.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Breaker is a classic closed/open/half-open circuit breaker for the
// scoring clients: FailureThreshold consecutive failures open it, opened
// circuits fast-fail every call for OpenFor, then a half-open phase lets
// one probe through at a time — HalfOpenSuccesses consecutive probe
// successes re-close the circuit, any probe failure re-opens it. Safe for
// concurrent use; the zero value is usable and gets the documented
// defaults on first use.
type Breaker struct {
	// FailureThreshold is how many consecutive failures trip the breaker.
	// Default 5.
	FailureThreshold int
	// OpenFor is how long an opened breaker fast-fails before admitting
	// half-open probes. Default 2s.
	OpenFor time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close a
	// half-open breaker. Default 1.
	HalfOpenSuccesses int
	// now is the test seam for time.
	now func() time.Time

	mu         sync.Mutex
	state      BreakerState
	fails      int          // consecutive failures while closed
	successes  int          // consecutive probe successes while half-open
	probing    bool         // a half-open probe is in flight
	openedAt   time.Time    // when the breaker last opened
	opens      atomic.Int64 // trips so far: the tag settle checks for staleness
	shortCircs atomic.Int64
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.FailureThreshold > 0 {
		return b.FailureThreshold
	}
	return 5
}

func (b *Breaker) openFor() time.Duration {
	if b.OpenFor > 0 {
		return b.OpenFor
	}
	return 2 * time.Second
}

func (b *Breaker) needSuccesses() int {
	if b.HalfOpenSuccesses > 0 {
		return b.HalfOpenSuccesses
	}
	return 1
}

// Call runs fn as one attempt guarded by the breaker. A nil breaker just
// runs fn. An open breaker fast-fails with ErrBreakerOpen without calling
// fn. Otherwise fn's outcome is recorded — a BreakerFailure counts against
// the circuit, any other answer is a live server — and its error returned.
func (b *Breaker) Call(fn func() error) error {
	if b == nil {
		return fn()
	}
	trips, ok := b.admit()
	if !ok {
		return ErrBreakerOpen
	}
	err := fn()
	b.settle(trips, err == nil || !BreakerFailure(err))
	return err
}

// admit reports whether a call may proceed, and the trip count it was
// admitted under. Every admission is paired with exactly one settle —
// half-open admission tracks the probe in flight.
func (b *Breaker) admit() (int64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return b.opens.Load(), true
	case BreakerOpen:
		if b.clock().Sub(b.openedAt) < b.openFor() {
			b.shortCircs.Add(1)
			return 0, false
		}
		// Cool-down over: move to half-open and admit this call as the
		// first probe.
		b.state = BreakerHalfOpen
		b.successes = 0
		b.probing = true
		return b.opens.Load(), true
	default: // BreakerHalfOpen
		if b.probing {
			// One probe at a time: a half-open breaker must not let a
			// thundering herd through on the strength of zero evidence.
			b.shortCircs.Add(1)
			return 0, false
		}
		b.probing = true
		return b.opens.Load(), true
	}
}

// settle reports the outcome of a call admitted under trip count trips.
// Failures while closed count toward the threshold; a probe failure while
// half-open re-opens the breaker, a probe success counts toward re-closing
// it. A call admitted before the latest trip is a straggler — whether the
// breaker is open or already probing again, its outcome is stale evidence
// and ignored.
func (b *Breaker) settle(trips int64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if trips != b.opens.Load() {
		return
	}
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold() {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		if !ok {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.needSuccesses() {
			b.state = BreakerClosed
			b.fails = 0
			b.successes = 0
		}
	}
}

// trip opens the breaker. Caller holds the lock.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.clock()
	b.fails = 0
	b.successes = 0
	b.probing = false
	b.opens.Add(1)
}

// State returns the breaker's current position, advancing an expired
// cool-down to half-open so the reported state matches what the next
// call would see.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.clock().Sub(b.openedAt) >= b.openFor() {
		return BreakerHalfOpen
	}
	return b.state
}

// ShortCircuits reports how many calls were fast-failed without reaching
// the server.
func (b *Breaker) ShortCircuits() int64 { return b.shortCircs.Load() }
