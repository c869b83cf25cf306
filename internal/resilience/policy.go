package resilience

import (
	"errors"
	"math/rand"
	"net/http"
	"time"
)

// StatusError is an error carrying the status a live server answered
// with — an HTTP status code on either plane (the wire protocol's Error
// frames reuse HTTP's numbering). Any other error is a transport failure:
// the request may never have arrived.
type StatusError interface {
	error
	StatusCode() int
}

// Retryable reports whether an idempotent call that failed with err may
// be tried again: transport failures and the overload/transient statuses.
// An open breaker is not — its cool-down outlives any backoff here.
func Retryable(err error) bool {
	if errors.Is(err, ErrBreakerOpen) {
		return false
	}
	var se StatusError
	if errors.As(err, &se) {
		switch se.StatusCode() {
		case http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// BreakerFailure reports whether err is evidence the server is down, as
// opposed to a deliberate answer from a live one: 4xx, 429 and 503 are a
// server shedding or refusing — alive and asking for backoff — so they
// never trip a breaker; hard 5xx and transport failures do.
func BreakerFailure(err error) bool {
	var se StatusError
	if errors.As(err, &se) {
		switch se.StatusCode() {
		case http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// Retry is the attempt loop every retrying caller shares: it runs try up
// to attempts times (0 means 3), sleeping Backoff(base, i, last) before
// retry i, and stops at the first success or at the first error retry
// rejects. It returns try's last error.
func Retry(attempts int, base time.Duration, retry func(error) bool, try func() error) error {
	if attempts <= 0 {
		attempts = 3
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(Backoff(base, i, err))
		}
		if err = try(); err == nil || !retry(err) {
			return err
		}
	}
	return err
}

const (
	// DefaultRetryBase is the first backoff delay when a client sets none.
	DefaultRetryBase = 50 * time.Millisecond
	// MaxBackoff caps the exponential retry delay.
	MaxBackoff = 2 * time.Second
)

// Backoff computes the sleep before retry attempt (1-based): base (0 means
// DefaultRetryBase) doubled per attempt, capped at MaxBackoff, with ±50%
// jitter, and floored at the server's Retry-After when last carries one.
// The doubling stops at the cap, so no attempt count can overflow it.
func Backoff(base time.Duration, attempt int, last error) time.Duration {
	if base <= 0 {
		base = DefaultRetryBase
	}
	d := base
	for i := 1; i < attempt && d < MaxBackoff; i++ {
		d *= 2
	}
	if d > MaxBackoff {
		d = MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(last, &ra) && ra.RetryAfter() > d {
		d = ra.RetryAfter()
	}
	return d
}
