package resilience

import (
	"testing"
	"time"
)

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
