package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
	"repro/internal/obs"
)

// span is one request's (or one shadow mirror's) entry in a slot's queue:
// its records and the verdict slab the workers fill, positionally, however
// the dispatcher cuts it. ctx, when non-nil, carries the request's
// deadline: a worker sheds (never scores) a segment whose ctx expired while
// it was queued, and a full queue makes the enqueue wait, bounded by ctx.
// A mirror carries a nil ctx — no deadline, no shedding, and a full queue
// drops it rather than slowing live traffic. enqueuedAt and trace are the
// observability carriers: the worker turns enqueuedAt into the queue_wait
// observation and appends the stage spans to trace.
type span struct {
	recs       []data.Record
	verdicts   []nids.Verdict
	ctx        context.Context
	trace      *obs.Trace
	enqueuedAt time.Time

	// Completion state, settled by the workers one segment at a time: left
	// counts the records not yet scored or shed, shed those dropped past
	// the deadline, and owner is told once, when left reaches zero.
	left  atomic.Int64
	shed  atomic.Int64
	owner completer
}

// completer is told when a span's last record settles. It runs on that
// scoring worker, so it must never block: the whole slot would wait.
type completer interface{ complete() }

// settle accounts k of the span's records as scored or (shed) dropped past
// the deadline; the span's last record completes it.
func (sp *span) settle(k int, shed bool) {
	if shed {
		sp.shed.Add(int64(k))
	}
	if sp.left.Add(-int64(k)) == 0 {
		sp.owner.complete()
	}
}

// segment is the records [lo, hi) of one span that a batch carries. A
// batch boundary may split a request, so one span can arrive at the
// workers as several segments, in several batches.
type segment struct {
	sp     *span
	lo, hi int
}

// flushedBatch is one cut batch of n records plus its assembly timing:
// openedAt is when the dispatcher started the batch, flushedAt when it was
// cut (MaxBatch reached or MaxWait expired). The difference is the
// batch_assembly stage.
type flushedBatch struct {
	segs      []segment
	n         int
	openedAt  time.Time
	flushedAt time.Time
}

// batcherConfig tunes the dynamic batcher.
type batcherConfig struct {
	// MaxBatch flushes a batch as soon as it holds this many records.
	MaxBatch int
	// MaxWait flushes a non-empty batch this long after it opened,
	// bounding the latency cost of waiting for co-travelers.
	MaxWait time.Duration
	// QueueDepth bounds the intake to this many requests; enqueues of live
	// requests wait when it is full (deliberate backpressure, mirroring
	// nids.Config.QueueDepth).
	QueueDepth int
}

// batcher groups enqueued requests into batches: a batch is flushed when
// it reaches MaxBatch records or MaxWait after it opened, whichever comes
// first. A request is one queue entry; the dispatcher splits it only where
// a batch fills, and the uncut remainder opens the next batch. The first
// record of a batch is never delayed beyond MaxWait, and records already
// queued never wait at all.
type batcher struct {
	cfg     batcherConfig
	in      chan *span
	batches chan flushedBatch
	slabs   sync.Pool // []segment backing arrays recycled across batches
	done    chan struct{}
	// queued counts records enqueued (or waiting for intake space) but not
	// yet cut into a batch, including the dispatcher's uncut remainder.
	queued atomic.Int64

	// closeMu guards the closed flag against concurrent enqueues: each
	// scorer's batcher can be closed while requests race to enqueue (slot
	// replaced mid-request), so enqueue must observe the close instead of
	// panicking on a closed channel. Enqueues take the read side — cheap
	// and shared — and close takes the write side exactly once. stop is
	// closed first, so an enqueue blocked on a full queue gives up its
	// read lock and its request retries on the successor.
	closeMu   sync.RWMutex
	closed    bool
	stop      chan struct{}
	closeOnce sync.Once
}

func newBatcher(cfg batcherConfig) *batcher {
	b := &batcher{
		cfg:     cfg,
		in:      make(chan *span, cfg.QueueDepth),
		batches: make(chan flushedBatch, 1),
		done:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	go b.dispatch()
	return b
}

// enqueue submits sp whole: it is accepted or refused, never split at
// intake. A live span (non-nil ctx) waits for queue space, bounded by its
// ctx — whose expiry abandons the wait, so the caller sheds the request
// rather than parking a handler goroutine behind a saturated batcher. A
// mirror (nil ctx) is refused at once by a full queue. enqueue also
// refuses once the batcher is closing: the caller's slot was replaced and
// it must retry on the successor generation. Callers tell the refusals
// apart by the ctx error. An accepted span will be scored or
// shed-with-accounting (close drains the queue before stopping).
func (b *batcher) enqueue(sp *span) bool {
	n := int64(len(sp.recs))
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return false
	}
	b.queued.Add(n)
	if sp.ctx == nil {
		select {
		case b.in <- sp:
			return true
		default:
		}
	} else {
		select {
		case b.in <- sp:
			return true
		case <-sp.ctx.Done():
		case <-b.stop:
		}
	}
	b.queued.Add(-n)
	return false
}

// queueLen reports the records not yet cut into a batch (for the /metrics
// gauge and the admission watermark).
func (b *batcher) queueLen() int { return int(b.queued.Load()) }

// close stops intake, flushes whatever is queued, and waits for the
// dispatcher to exit. The batches channel is closed afterwards, which is
// the workers' signal to drain and stop. Safe to call more than once.
// Acquiring the write lock cannot deadlock against an enqueue: a blocked
// one is released by stop, and the dispatcher keeps draining the queue
// until the channel closes.
func (b *batcher) close() {
	b.closeOnce.Do(func() {
		close(b.stop)
		b.closeMu.Lock()
		b.closed = true
		close(b.in)
		b.closeMu.Unlock()
	})
	<-b.done
}

func (b *batcher) getSlab() []segment {
	if s, ok := b.slabs.Get().(*[]segment); ok {
		return (*s)[:0]
	}
	return make([]segment, 0, b.cfg.MaxBatch)
}

// putSlab returns a delivered batch's backing array for reuse. Workers
// call it after the batch's segments are settled. Slabs whose capacity
// exceeds MaxBatch are dropped instead of pooled — a defensive cap: a
// batch holds at most MaxBatch non-empty segments, but a future change
// that over-appends would otherwise keep recycling the oversized array
// between GC cycles, inflating every pooled batch to burst size.
func (b *batcher) putSlab(s []segment) {
	if cap(s) > b.cfg.MaxBatch {
		return // oversized: let the GC take it
	}
	for i := range s {
		s[i] = segment{} // drop span references for the GC
	}
	s = s[:0]
	b.slabs.Put(&s)
}

// dispatch is the single goroutine that cuts batches. It takes spans from
// intake and moves their records into the open batch; a span that does
// not fit is split at the batch boundary and its remainder opens the next
// batch.
func (b *batcher) dispatch() {
	defer close(b.batches)
	defer close(b.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var rest segment // the records of the last span taken not yet cut
	for open := true; open; {
		if rest.sp == nil {
			sp, ok := <-b.in
			if !ok {
				return
			}
			rest = segment{sp: sp, hi: len(sp.recs)}
		}
		fb := flushedBatch{segs: b.getSlab(), openedAt: time.Now()}
		timer.Reset(b.cfg.MaxWait)
		timerFired := false
	fill:
		for {
			take := min(rest.hi-rest.lo, b.cfg.MaxBatch-fb.n)
			fb.segs = append(fb.segs, segment{sp: rest.sp, lo: rest.lo, hi: rest.lo + take})
			fb.n += take
			b.queued.Add(-int64(take))
			if rest.lo += take; rest.lo < rest.hi || fb.n == b.cfg.MaxBatch {
				break
			}
			select {
			case sp, ok := <-b.in:
				if !ok {
					open = false
					break fill
				}
				rest = segment{sp: sp, hi: len(sp.recs)}
			case <-timer.C:
				timerFired = true
				break fill
			}
		}
		if rest.lo == rest.hi {
			rest = segment{}
		}
		if !timerFired && !timer.Stop() {
			<-timer.C
		}
		fb.flushedAt = time.Now()
		b.batches <- fb
	}
}
