package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request. Everything but outOK counts against
// ok_pct, and a request that is not ok misses any latency limit.
type outcome uint8

const (
	outOK         outcome = iota
	outFailed             // transport or server error
	outShed               // the server refused it (429/503)
	outWrongCount         // verdict count differs from record count
	outMismatch           // a verdict differs from the f64 reference
)

// callFn performs request number seq and reports how it went, plus the
// HTTP exchange's X-Request-Id while tracing.
type callFn func(seq int) (outcome, string)

// reqResult is one request on its phase's time axis (offsets from the
// phase start). In a closed loop due equals sent.
type reqResult struct {
	due, sent, done time.Duration
	out             outcome
	inflight        int32 // requests in flight when this one was dispatched
	xid             string
}

// runClosed drives call from clients goroutines, each sending its next
// request only when the previous one returned, until dur has elapsed.
// Sequence numbers are handed out in order across clients, so the drive
// set is walked the same way whatever the client count.
func runClosed(clients int, dur time.Duration, call callFn) []reqResult {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]reqResult, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= dur {
					return
				}
				out, xid := call(int(next.Add(1) - 1))
				per[c] = append(per[c], reqResult{due: sent, sent: sent, done: time.Since(start), out: out, xid: xid})
			}
		}(c)
	}
	wg.Wait()
	var all []reqResult
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sent < all[j].sent })
	return all
}

// maxInflight bounds the open loop's goroutines should the server stop
// answering; reaching it blocks the dispatcher, which shows as lateness.
const maxInflight = 4096

// runOpen sends request i at schedule[i] after the phase start whether
// or not earlier requests have returned — the arrival process of
// independent users. Latency is later taken from the due time, so a
// stall is charged to every request it delays, not only to the one that
// hit it; nothing is skipped, and sent − due reports how late the
// generator itself ran.
func runOpen(schedule []time.Duration, call callFn) []reqResult {
	res := make([]reqResult, len(schedule))
	sem := make(chan struct{}, maxInflight)
	var inflight atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range schedule {
		sleepUntil(start, due)
		sem <- struct{}{}
		wg.Add(1)
		n := inflight.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			sent := time.Since(start)
			out, xid := call(i)
			res[i] = reqResult{due: due, sent: sent, done: time.Since(start), out: out, inflight: n, xid: xid}
			inflight.Add(-1)
			<-sem
		}(i, due)
	}
	wg.Wait()
	return res
}

// sleepUntil returns once due has elapsed since start. It is plain
// time.Sleep on purpose. The runtime wakes an idle P for a timer through
// epoll, whose timeout is whole milliseconds, so a sleeper runs up to
// 1 ms late (0.6 ms p50, 1.2 ms p99 on the reference box). nanosleep is
// sharper when the box is idle (0.1 ms p50) but returns through the
// scheduler's global run queue when both Ps are busy, and ran 40 to
// 140 ms late at p99 under the HTTP workload; spinning out the last
// millisecond would take a core from a 2-core server. The lateness is
// reported (client.sched_late_*) and is part of latency from due time.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > 0 {
		time.Sleep(d)
	}
}

// evenSchedule spaces requests 1/rate apart over dur.
func evenSchedule(rate float64, dur time.Duration) []time.Duration {
	n := int(rate * dur.Seconds())
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return s
}

// poissonSchedule draws exponential gaps at the given mean rate from a
// generator seeded by seed alone: equal seeds give equal schedules.
func poissonSchedule(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var s []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		s = append(s, time.Duration(t*float64(time.Second)))
	}
	return s
}

// phaseCounts tallies a phase's requests by outcome.
type phaseCounts struct {
	attempted, ok, failed, shed, wrongCount, mismatch int64
}

func (c phaseCounts) notOK() int64 { return c.attempted - c.ok }

func (c *phaseCounts) add(o phaseCounts) {
	c.attempted += o.attempted
	c.ok += o.ok
	c.failed += o.failed
	c.shed += o.shed
	c.wrongCount += o.wrongCount
	c.mismatch += o.mismatch
}

func countOutcomes(res []reqResult) phaseCounts {
	var c phaseCounts
	for _, r := range res {
		c.attempted++
		switch r.out {
		case outOK:
			c.ok++
		case outFailed:
			c.failed++
		case outShed:
			c.shed++
		case outWrongCount:
			c.wrongCount++
		case outMismatch:
			c.mismatch++
		}
	}
	return c
}

// okLatencies returns done − from(r) in milliseconds for every ok
// request, placed on the time axis at from(r).
func okLatencies(res []reqResult, from func(reqResult) time.Duration) []timedValue {
	out := make([]timedValue, 0, len(res))
	for _, r := range res {
		if r.out == outOK {
			out = append(out, timedValue{at: from(r).Seconds(), v: float64(r.done-from(r)) / float64(time.Millisecond)})
		}
	}
	return out
}

func byDue(r reqResult) time.Duration  { return r.due }
func bySent(r reqResult) time.Duration { return r.sent }

// sortedValues strips the time axis and sorts ascending.
func sortedValues(tv []timedValue) []float64 {
	v := make([]float64, len(tv))
	for i, x := range tv {
		v[i] = x.v
	}
	sort.Float64s(v)
	return v
}

// backlogGrowing reports whether an open phase ended with clearly more
// requests in flight than it carried mid-way: the sign that the offered
// rate exceeds what the server sustains.
func backlogGrowing(res []reqResult) bool {
	n := len(res)
	if n < 8 {
		return false
	}
	avg := func(rs []reqResult) float64 {
		s := 0.0
		for _, r := range rs {
			s += float64(r.inflight)
		}
		return s / float64(len(rs))
	}
	return avg(res[3*n/4:]) > 2*avg(res[n/4:n/2])+2
}
