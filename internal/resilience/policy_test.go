package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// status is a StatusError carrying only its code.
type status int

func (s status) Error() string   { return fmt.Sprintf("status %d", int(s)) }
func (s status) StatusCode() int { return int(s) }

// TestRetryTable pins the shared attempt loop: each row scripts the
// errors successive tries return and states how many tries the loop makes
// and which error it hands back.
func TestRetryTable(t *testing.T) {
	errDown := errors.New("connection refused")
	for _, tc := range []struct {
		name     string
		attempts int
		script   []error
		tries    int
		want     error
	}{
		{"success first", 3, []error{nil}, 1, nil},
		{"503 twice then success", 3, []error{status(503), status(503), nil}, 3, nil},
		{"400 never retried", 3, []error{status(400), nil}, 1, status(400)},
		{"open breaker never retried", 3, []error{fmt.Errorf("call: %w", ErrBreakerOpen), nil}, 1, ErrBreakerOpen},
		{"attempts 0 means 3", 0, []error{errDown, errDown, errDown, nil}, 3, errDown},
		{"attempts 1 never retries", 1, []error{status(503), nil}, 1, status(503)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tries := 0
			err := Retry(tc.attempts, time.Microsecond, Retryable, func() error {
				tries++
				return tc.script[tries-1]
			})
			if tries != tc.tries {
				t.Errorf("tries = %d, want %d", tries, tc.tries)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestBreakerCall pins the gate each attempt runs through: a nil breaker
// just runs fn, an open one fast-fails without running it, and a live
// server's deliberate answers never count against the circuit.
func TestBreakerCall(t *testing.T) {
	var nilBreaker *Breaker
	ran := false
	if err := nilBreaker.Call(func() error { ran = true; return status(500) }); !ran || err != status(500) {
		t.Fatalf("nil breaker: ran=%v err=%v, want fn run and its error returned", ran, err)
	}

	b := &Breaker{FailureThreshold: 1, OpenFor: time.Hour}
	if err := b.Call(func() error { return status(503) }); err != status(503) || b.State() != BreakerClosed {
		t.Fatalf("503: err=%v state=%s, want the error back and the breaker closed", err, b.State())
	}
	if err := b.Call(func() error { return status(502) }); err != status(502) || b.State() != BreakerOpen {
		t.Fatalf("502: err=%v state=%s, want the error back and the breaker open", err, b.State())
	}
	if err := b.Call(func() error { t.Error("open breaker ran fn"); return nil }); err != ErrBreakerOpen {
		t.Fatalf("open breaker: err=%v, want ErrBreakerOpen", err)
	}
}

// TestBackoffNeverOverflows is the regression test for the retry-delay
// overflow: computing the delay as base << (attempt-1) wraps int64 at
// attempt 39 for a 50ms base and reached rand.Int63n with a negative
// argument (a panic in the caller's retry loop). For every attempt a
// client could configure, the delay must stay within the jitter band of
// the capped exponential.
func TestBackoffNeverOverflows(t *testing.T) {
	for _, base := range []time.Duration{50 * time.Millisecond, time.Second} {
		for attempt := 1; attempt <= 64; attempt++ {
			want := MaxBackoff
			if shift := attempt - 1; shift < 32 && base<<shift < MaxBackoff {
				want = base << shift
			}
			for i := 0; i < 16; i++ {
				if d := Backoff(base, attempt, nil); d < want/2 || d >= want/2+want {
					t.Fatalf("Backoff(%v, attempt %d) = %v, want in [%v, %v)", base, attempt, d, want/2, want/2+want)
				}
			}
		}
	}
	if d := Backoff(0, 1, nil); d < DefaultRetryBase/2 || d >= DefaultRetryBase/2+DefaultRetryBase {
		t.Fatalf("Backoff with no base = %v, want around DefaultRetryBase %v", d, DefaultRetryBase)
	}
}
