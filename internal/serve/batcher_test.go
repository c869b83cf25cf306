package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nids"
)

// testDone is a test span's completion: it closes when the span's last
// record settles.
type testDone chan struct{}

func (d testDone) complete() { close(d) }

// testSpan returns an n-record live span ready to enqueue: its ctx never
// expires, so enqueue waits for queue space the way a request does.
func testSpan(n int) *span {
	sp := &span{
		recs:     make([]data.Record, n),
		verdicts: make([]nids.Verdict, n),
		ctx:      context.Background(),
		owner:    make(testDone),
	}
	sp.left.Store(int64(n))
	return sp
}

// settleBatch settles every segment of fb as scored and returns its slab.
func settleBatch(b *batcher, fb flushedBatch) {
	for _, sg := range fb.segs {
		sg.sp.settle(sg.hi-sg.lo, false)
	}
	b.putSlab(fb.segs)
}

func collectBatches(b *batcher, out chan<- int) {
	for fb := range b.batches {
		n := fb.n
		settleBatch(b, fb)
		out <- n
	}
	close(out)
}

// waitSpan waits for sp to complete, failing the test after 5s.
func waitSpan(t *testing.T, sp *span, what string) {
	t.Helper()
	select {
	case <-sp.owner.(testDone):
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never completed", what)
	}
}

// TestBatcherFlushesOnMaxBatch checks that a full queue cuts batches at
// exactly MaxBatch without waiting for the deadline.
func TestBatcherFlushesOnMaxBatch(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, MaxWait: time.Hour, QueueDepth: 64})
	sizes := make(chan int, 16)
	go collectBatches(b, sizes)

	// With MaxWait effectively infinite, completion proves MaxBatch flushes.
	var spans []*span
	for i := 0; i < 8; i++ {
		sp := testSpan(1)
		b.enqueue(sp)
		spans = append(spans, sp)
	}
	for _, sp := range spans {
		waitSpan(t, sp, "a record queued with MaxBatch=4 (MaxWait=1h)")
	}
	b.close()
	total := 0
	for n := range sizes {
		if n > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch=4", n)
		}
		total += n
	}
	if total != 8 {
		t.Fatalf("flushed %d records, enqueued 8", total)
	}
}

// TestBatcherSplitsSpanAtMaxBatch checks that one 64-record request, one
// enqueue, reaches the workers as two full batches of MaxBatch 32 —
// split at the batch boundary, each half a segment of the same span — and
// that the queue gauge counts it in records until it is cut.
func TestBatcherSplitsSpanAtMaxBatch(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 32, MaxWait: time.Hour, QueueDepth: 4})
	sp := testSpan(64)
	if !b.enqueue(sp) {
		t.Fatal("enqueue refused a span on an open batcher")
	}
	var got []segment
	for len(got) < 2 {
		fb := <-b.batches
		if fb.n != 32 || len(fb.segs) != 1 {
			t.Fatalf("batch of %d records in %d segments, want 32 in 1", fb.n, len(fb.segs))
		}
		got = append(got, fb.segs[0])
		settleBatch(b, fb)
	}
	waitSpan(t, sp, "the split span")
	if got[0] != (segment{sp, 0, 32}) || got[1] != (segment{sp, 32, 64}) {
		t.Fatalf("segments %+v, want [0,32) and [32,64) of one span", got)
	}
	if q := b.queueLen(); q != 0 {
		t.Fatalf("queue holds %d records after both halves were cut", q)
	}
	b.close()
}

// TestBatcherFlushesOnMaxWait checks that a lone record is flushed by the
// deadline rather than waiting for co-travelers forever.
func TestBatcherFlushesOnMaxWait(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 1024, MaxWait: 2 * time.Millisecond, QueueDepth: 64})
	defer b.close()
	sizes := make(chan int, 4)
	go collectBatches(b, sizes)

	sp := testSpan(1)
	start := time.Now()
	b.enqueue(sp)
	waitSpan(t, sp, "a lone record")
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone record waited %s, MaxWait is 2ms", waited)
	}
	if n := <-sizes; n != 1 {
		t.Fatalf("lone record flushed in a batch of %d", n)
	}
}

// TestPutSlabDropsOversized checks the free-list cap: a slab whose backing
// array outgrew MaxBatch must not re-enter the pool, while a right-sized
// slab must.
func TestPutSlabDropsOversized(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, MaxWait: time.Hour, QueueDepth: 4})
	defer b.close()

	// A right-sized slab round-trips (cap preserved through put/get).
	b.putSlab(make([]segment, 0, 4))
	if got := b.getSlab(); cap(got) > 4 {
		t.Fatalf("right-sized slab came back with cap %d", cap(got))
	}

	// An oversized slab (e.g. from a burst) is dropped, so the next getSlab
	// hands out a fresh MaxBatch-capacity array, never the big one.
	b.putSlab(make([]segment, 0, 1024))
	for i := 0; i < 4; i++ {
		if got := b.getSlab(); cap(got) > b.cfg.MaxBatch {
			t.Fatalf("oversized slab (cap %d) re-entered the free list", cap(got))
		}
	}
}

// TestBatcherEnqueueAfterCloseRefuses pins the close protocol the
// registry's slot swaps rely on: an enqueue racing (or following) close
// returns false instead of panicking on the closed channel, for a live
// span and a mirror alike, and close is idempotent.
func TestBatcherEnqueueAfterCloseRefuses(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 4})
	sizes := make(chan int, 4)
	go collectBatches(b, sizes)
	b.close()
	b.close() // idempotent
	mirror := testSpan(1)
	mirror.ctx = nil
	for _, sp := range []*span{testSpan(1), mirror} {
		if b.enqueue(sp) {
			t.Fatalf("enqueue(live=%v) accepted a span after close", sp.ctx != nil)
		}
	}
	if q := b.queueLen(); q != 0 {
		t.Fatalf("refused spans left %d records on the queue gauge", q)
	}
	for range sizes {
	}
}

// TestBatcherCloseRefusesBlockedEnqueue checks that close releases an
// enqueue waiting on a full intake — refused whole, so its request can
// retry on the successor — while the queued spans still drain.
func TestBatcherCloseRefusesBlockedEnqueue(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 1, MaxWait: time.Hour, QueueDepth: 1})
	// No consumer yet: the first span's records fill the hand-off and the
	// dispatcher, the second fills the intake, and the third must wait.
	var queued []*span
	for i := 0; i < 2; i++ {
		sp := testSpan(2)
		b.enqueue(sp)
		queued = append(queued, sp)
	}
	blocked := make(chan bool)
	go func() { blocked <- b.enqueue(testSpan(6)) }()
	// The gauge counts the waiting span's records too: 2 uncut + 6.
	for b.queueLen() < 8 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { b.close(); close(closed) }()
	if <-blocked {
		t.Fatal("an enqueue blocked on a full queue was accepted by a closing batcher")
	}
	sizes := make(chan int, 16)
	go collectBatches(b, sizes)
	<-closed
	for _, sp := range queued {
		waitSpan(t, sp, "a span queued before close")
	}
	total := 0
	for n := range sizes {
		total += n
	}
	if total != 4 {
		t.Fatalf("drain delivered %d records, want the 4 queued before close", total)
	}
}

// TestBatcherCloseFlushesQueued checks the drain path: records enqueued
// before close are all delivered.
func TestBatcherCloseFlushesQueued(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 8, MaxWait: time.Hour, QueueDepth: 64})
	sizes := make(chan int, 16)
	var spans []*span
	for i := 0; i < 5; i++ {
		sp := testSpan(1)
		b.enqueue(sp)
		spans = append(spans, sp)
	}
	go collectBatches(b, sizes)
	b.close()
	for _, sp := range spans {
		waitSpan(t, sp, "a record queued before close")
	}
	total := 0
	for n := range sizes {
		total += n
	}
	if total != 5 {
		t.Fatalf("drain delivered %d of 5 queued records", total)
	}
}
