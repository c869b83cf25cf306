package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/registry"
)

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// waitQueueLen polls the live slot's queue until it holds at least n
// records or the deadline passes.
func waitQueueLen(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		si, ok := srv.slot(registry.Live)
		if ok && si.scorer.queueLen() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d records", n)
}

// TestAdmissionControlFastFails429 is the admission-controller tentpole
// test: once a slot's queue crosses the watermark, new scoring requests
// are answered 429 + Retry-After immediately — no handler goroutine ever
// parks behind a saturated batcher — the sheds are counted per slot and
// server-wide, and /healthz stays green throughout. Identically on both
// planes.
func TestAdmissionControlFastFails429(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 11, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 8, AdmitWatermark: 2, Chaos: inj,
	})

	// 8 filler records scored + 1 record shed are admitted per run.
	ans, delta := onBothPlanes(t, srv, planesOf(t, srv, ts), 9, func(t *testing.T, p scorePlane) planeAnswer {
		// Stall the only replica so queued records stay queued.
		inj.SetScoreDelay(300 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 8 single-record batches: one in service, one parked in the
			// hand-off, the rest queued (>= watermark 2).
			postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:8])})
		}()
		waitQueueLen(t, srv, 2)

		ans := p.score(t, planeRequest{recs: recs[:1]})

		// Overload must be invisible to liveness.
		if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz = %d during overload, want 200", code)
		}
		inj.SetScoreDelay(0)
		wg.Wait()
		return ans
	})
	if ans.status != http.StatusTooManyRequests {
		t.Fatalf("over-watermark request got %d, want 429", ans.status)
	}
	if delta["shed"] != 1 || delta["live.shed"] != 1 || delta["errors_4xx"] != 1 || delta["records"] != 8 {
		t.Fatalf("one 429 behind 8 queued records moved the counters by %v", delta)
	}

	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"pelican_serve_shed_total 2", `pelican_serve_slot_shed_total{slot="live"`} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestDeadlineExpiredSheds503 is the deadline-propagation tentpole test: a
// request whose deadline hint (X-Timeout-Ms, the wire frame's deadline
// field) runs out while its record waits behind a slow replica is shed —
// never scored — and answered 503 + Retry-After, with the shed counted on
// the slot; the server then recovers on its own once the fault clears.
// Identically on both planes.
func TestDeadlineExpiredSheds503(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 13, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 8, Chaos: inj,
	})

	// 1 filler record scored + 1 record expired are admitted per run.
	ans, delta := onBothPlanes(t, srv, planesOf(t, srv, ts), 2, func(t *testing.T, p scorePlane) planeAnswer {
		// Occupy the only replica for 400ms.
		inj.SetScoreDelay(400 * time.Millisecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
		}()
		// Give the first record time to be cut and picked up by the (stalled)
		// replica before the timed request arrives behind it.
		time.Sleep(50 * time.Millisecond)

		// 50ms of budget cannot survive a 400ms replica stall.
		start := time.Now()
		ans := p.score(t, planeRequest{recs: recs[:1], timeoutMS: 50})
		// The answer must come at deadline speed, not replica speed... but the
		// shed happens when a worker sees the record, so allow one stall.
		if waited := time.Since(start); waited > 3*time.Second {
			t.Fatalf("expired request answered after %v", waited)
		}
		if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("/healthz = %d during deadline sheds, want 200", code)
		}
		inj.SetScoreDelay(0)
		wg.Wait()
		return ans
	})
	if ans.status != http.StatusServiceUnavailable {
		t.Fatalf("expired request got %d, want 503", ans.status)
	}
	if delta["expired"] != 1 || delta["live.expired"] != 1 || delta["errors_5xx"] != 1 || delta["records"] != 1 {
		t.Fatalf("one expired request behind one scored record moved the counters by %v", delta)
	}

	// Recovery: the same request with default budget now scores fine.
	resp2, body2 := postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[:1])})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request got %d (%s)", resp2.StatusCode, body2)
	}
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(string(metrics), "pelican_serve_deadline_expired_total 2") {
		t.Fatalf("/metrics missing the deadline-expired counter:\n%s", metrics)
	}
}

// TestPartialExpiryConservedOnBothPlanes pins settlement for a request
// whose deadline passes part-way through: behind a 100ms replica, two of
// its three single-record batches are scored within the 150ms budget and
// the third is shed. The request is settled once, whole — 503, and all
// three records counted as expired, none as scored — so the counters
// still account every admitted record. Identically on both planes.
func TestPartialExpiryConservedOnBothPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 23, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 8, Chaos: inj,
	})
	inj.SetScoreDelay(100 * time.Millisecond)

	ans, delta := onBothPlanes(t, srv, planesOf(t, srv, ts), 3, func(t *testing.T, p scorePlane) planeAnswer {
		return p.score(t, planeRequest{recs: recs[:3], timeoutMS: 150})
	})
	if ans.status != http.StatusServiceUnavailable {
		t.Fatalf("partly expired request got %d, want 503", ans.status)
	}
	if delta["expired"] != 3 || delta["live.expired"] != 3 || delta["records"] != 0 || delta["errors_5xx"] != 1 {
		t.Fatalf("one partly expired 3-record request moved the counters by %v", delta)
	}
}

// TestDeadlineHintShortensNeverExtends pins the one deadline rule both
// planes share: a client's millisecond hint may shorten RequestTimeout and
// nothing else — absent, non-positive, larger, or too large to be a
// Duration at all (a hostile X-Timeout-Ms), the server's own budget holds.
func TestDeadlineHintShortensNeverExtends(t *testing.T) {
	s := &Server{cfg: Config{RequestTimeout: time.Second}}
	for hint, want := range map[int64]time.Duration{
		0: time.Second, -5: time.Second, 50: 50 * time.Millisecond, 5000: time.Second,
		math.MaxInt64: time.Second, math.MaxInt64 / 1000: time.Second,
	} {
		ctx, cancel := s.deadline(context.Background(), hint)
		dl, ok := ctx.Deadline()
		cancel()
		if left := time.Until(dl); !ok || left > want || left < want-500*time.Millisecond {
			t.Errorf("hint %d ms: deadline in %v (set %v), want %v", hint, left, ok, want)
		}
	}
}

// TestSwapMidRequestRetriesOnSuccessor pins the swap-retry path: a request
// still waiting for intake space when its slot is replaced (the old
// generation's scorer closes under it) is scored, whole, by the successor
// generation — the client sees one answer from the new version, the
// retired generation scores none of its records, and the records are
// counted once. Identically on both planes.
func TestSwapMidRequestRetriesOnSuccessor(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a1, _, recs := trainTestArtifact(t, "mlp", 17, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 19, 1)
	want := f64Verdicts(t, a2, recs[:6])

	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a1, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: time.Millisecond,
		QueueDepth: 1, AdmitWatermark: -1, Chaos: inj,
	})

	// 4 filler records scored by the old generation + the 6-record request
	// scored by the successor are admitted per run.
	ans, delta := onBothPlanes(t, srv, planesOf(t, srv, ts), 10, func(t *testing.T, p scorePlane) planeAnswer {
		if err := srv.LoadSlot(registry.Live, a1); err != nil {
			t.Fatal(err)
		}
		si, _ := srv.slot(registry.Live)
		old := si.scorer
		waitFor := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}
		// Fill the stalled single-record pipeline: a 3-record filler puts one
		// record in service, one in the hand-off and one with the blocked
		// dispatcher; a 1-record filler then fills the one-request intake.
		inj.SetScoreDelay(500 * time.Millisecond)
		var fillers sync.WaitGroup
		fill := func(n int) {
			fillers.Add(1)
			go func() {
				defer fillers.Done()
				postJSON(t, ts.URL+"/v2/detect-batch", detectBatchRequest{Records: recordsJSON(recs[6 : 6+n])})
			}()
		}
		fill(3)
		waitFor("the 3-record filler to be cut", func() bool { return len(old.b.batches) == 1 && old.queueLen() == 0 })
		fill(1)
		waitFor("the 1-record filler to fill the intake", func() bool { return old.queueLen() == 1 })

		swapped := make(chan error, 1)
		go func() {
			defer close(swapped) // also when waitQueueLen gives up
			// The 6-record request is waiting for intake space once the gauge
			// counts it. The first swap only demotes a1 to the warm rollback
			// target; the second retires it — closing the scorer the request
			// waits on.
			waitQueueLen(t, srv, 7)
			inj.SetScoreDelay(0)
			err := srv.LoadSlot(registry.Live, a2)
			if err == nil {
				err = srv.LoadSlot(registry.Live, a2)
			}
			swapped <- err
		}()
		ans := p.score(t, planeRequest{recs: recs[:6]})
		if err := <-swapped; err != nil {
			t.Fatal(err)
		}
		fillers.Wait()
		old.close() // already retired: waits out its drain
		if cut := old.stages.batchSize.Sum(); cut != 4 {
			t.Fatalf("the retired generation cut %v records, want only the 4 filler records", cut)
		}
		return ans
	})
	if ans.status != http.StatusOK || ans.version != a2.Version() {
		t.Fatalf("swapped request answered %d by version %q, want 200 by the successor %q", ans.status, ans.version, a2.Version())
	}
	if err := sameVerdicts(ans.verdicts, want); err != nil {
		t.Fatalf("swapped request vs the successor's f64 oracle: %v", err)
	}
	if delta["records"] != 10 || delta["live.records"] != 10 {
		t.Fatalf("4 filler records and six records scored across a swap moved the counters by %v", delta)
	}
}

// TestMirrorDropAccountingExact is the satellite coverage for the
// mirror-drop path: under concurrent live traffic with mirrorConcurrency=1
// and slowed replicas, mirrors are dropped rather than blocking live — and
// the per-slot counters account every record exactly:
// mirrored + mirror_dropped == live records, with the shadow slot's own
// records/agreement counters consistent. Run under -race in CI, this also
// proves the mirror goroutines' memory discipline.
func TestMirrorDropAccountingExact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 17, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 19, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 2, MaxBatch: 8, MaxWait: time.Millisecond,
		QueueDepth: 64, mirrorConcurrency: 1, Chaos: inj,
	})
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	// A little injected service time holds the single mirror token long
	// enough that concurrent live requests must drop mirrors.
	inj.SetScoreDelay(5 * time.Millisecond)

	const clients, reqs = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqs; r++ {
				b, _ := json.Marshal(detectBatchRequest{Records: recordsJSON(recs[:8])})
				resp, err := http.Post(ts.URL+"/v2/detect-batch", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("live request got %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Close waits for in-flight mirror goroutines, so the counters are
	// final — and exact, not approximate.
	ts.Close()
	srv.Close()

	liveSt := srv.reg.StatsFor(registry.Live)
	shSt := srv.reg.StatsFor(registry.Shadow)
	liveRecords := liveSt.Records.Load()
	mirrored, dropped := shSt.Mirrored.Load(), shSt.MirrorDropped.Load()
	if want := int64(clients * reqs * 8); liveRecords != want {
		t.Fatalf("live records = %d, want %d", liveRecords, want)
	}
	if mirrored+dropped != liveRecords {
		t.Fatalf("mirrored(%d) + dropped(%d) = %d, want exactly live records %d",
			mirrored, dropped, mirrored+dropped, liveRecords)
	}
	if dropped == 0 {
		t.Fatalf("no mirrors dropped with mirrorConcurrency=1 under %d concurrent clients", clients)
	}
	if got := shSt.Records.Load(); got != mirrored {
		t.Fatalf("shadow records = %d, want mirrored %d", got, mirrored)
	}
	if agree := shSt.Agreements.Load() + shSt.Disagreements.Load(); agree != mirrored {
		t.Fatalf("agreements+disagreements = %d, want mirrored %d", agree, mirrored)
	}
}

// TestConservationSoakBothPlanes holds the accounting identities under
// chaos and overload at once: HTTP and wire clients race mixed 1-, 8- and
// 48-record requests (48 > MaxBatch, so some are split across batches)
// with random short deadlines at a slowed slot with a low admission
// watermark, while a loaded shadow takes mirrors one at a time. Once the
// server has closed, every record sent is accounted exactly once —
// records + shed + expired, server-wide and on the live slot, each equal
// to what the clients saw answered 200, 429 and 503 — and every live
// record is mirrored or counted as a dropped mirror.
func TestConservationSoakBothPlanes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, _, recs := trainTestArtifact(t, "mlp", 29, 1)
	a2, _, _ := trainTestArtifact(t, "mlp", 31, 1)
	inj := &chaos.Injector{}
	srv, ts := newTestServer(t, a, Config{
		Replicas: 2, MaxBatch: 32, MaxWait: time.Millisecond,
		QueueDepth: 8, AdmitWatermark: 40, mirrorConcurrency: 1, Chaos: inj,
	})
	if err := srv.LoadSlot(registry.Shadow, a2); err != nil {
		t.Fatal(err)
	}
	inj.SetScoreDelay(3 * time.Millisecond)

	const clientsPerPlane, reqs = 4, 24
	var planes []scorePlane
	for c := 0; c < clientsPerPlane; c++ {
		planes = append(planes, planesOf(t, srv, ts)...)
	}
	var mu sync.Mutex
	byStatus := map[int]int64{}
	t.Run("clients", func(t *testing.T) {
		for c, p := range planes {
			c, p := c, p
			t.Run(fmt.Sprintf("%s%d", p.name, c), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(c)))
				for r := 0; r < reqs; r++ {
					n := []int{1, 8, 48}[rng.Intn(3)]
					timeoutMS := []int{0, 5, 20, 60}[rng.Intn(4)]
					lo := rng.Intn(len(recs) - n)
					ans := p.score(t, planeRequest{recs: recs[lo : lo+n], timeoutMS: timeoutMS})
					mu.Lock()
					byStatus[ans.status] += int64(n)
					mu.Unlock()
				}
			})
		}
	})
	ts.Close()
	srv.Close()

	var sent int64
	for _, n := range byStatus {
		sent += n
	}
	c := countersOf(srv)
	t.Logf("records by status %v; counters %v", byStatus, c)
	if got := c["records"] + c["shed"] + c["expired"]; got != sent {
		t.Errorf("server-wide: records+shed+expired = %d, want the %d records sent", got, sent)
	}
	if got := c["live.records"] + c["live.shed"] + c["live.expired"]; got != sent {
		t.Errorf("live slot: records+shed+expired = %d, want the %d records sent", got, sent)
	}
	if c["records"] != byStatus[http.StatusOK] || c["shed"] != byStatus[http.StatusTooManyRequests] ||
		c["expired"] != byStatus[http.StatusServiceUnavailable] {
		t.Errorf("counters records/shed/expired = %d/%d/%d, clients saw %d/%d/%d records answered 200/429/503",
			c["records"], c["shed"], c["expired"], byStatus[http.StatusOK],
			byStatus[http.StatusTooManyRequests], byStatus[http.StatusServiceUnavailable])
	}
	if got := c["shadow.mirrored"] + c["shadow.mirror_dropped"]; got != c["live.records"] {
		t.Errorf("mirrored + mirror_dropped = %d, want exactly the %d live records", got, c["live.records"])
	}
}

// TestBatcherMaxWaitUnderSlowConsumer is the satellite coverage for flush
// timing: MaxWait bounds when a batch is cut, independent of how slowly
// the replica services batches. A record enqueued during a replica's
// 100ms service pause is cut into its own batch at MaxWait and delivered
// the moment the replica frees up — it never waits for a co-traveler and
// never joins the earlier batch.
func TestBatcherMaxWaitUnderSlowConsumer(t *testing.T) {
	b := newBatcher(batcherConfig{MaxBatch: 1024, MaxWait: 5 * time.Millisecond, QueueDepth: 64})
	defer b.close()

	type delivery struct {
		at   time.Time
		size int
	}
	deliveries := make(chan delivery, 4)
	go func() {
		for fb := range b.batches {
			deliveries <- delivery{at: time.Now(), size: fb.n}
			time.Sleep(100 * time.Millisecond) // slow replica
			settleBatch(b, fb)
		}
		close(deliveries)
	}()

	sp1, sp2 := testSpan(1), testSpan(1)
	start := time.Now()
	b.enqueue(sp1)

	first := <-deliveries
	if first.size != 1 {
		t.Fatalf("first batch holds %d records, want the lone first record", first.size)
	}
	if waited := first.at.Sub(start); waited > time.Second {
		t.Fatalf("first batch cut after %v; MaxWait is 5ms", waited)
	}

	// The replica is now mid-service. A record arriving here must be cut
	// at MaxWait — bounded by flush policy, not by the 100ms service time
	// plus another wait.
	enq := time.Now()
	b.enqueue(sp2)
	second := <-deliveries
	if second.size != 1 {
		t.Fatalf("second batch holds %d records, want 1", second.size)
	}
	// Delivered as soon as the replica frees up (~100ms after the first
	// delivery): the cut happened at MaxWait and the batch sat ready in the
	// hand-off channel. What it must NOT cost is service time on top of a
	// fresh MaxBatch wait — bound it well under 2 service periods.
	if waited := second.at.Sub(enq); waited > 150*time.Millisecond {
		t.Fatalf("second record delivered %v after enqueue; MaxWait=5ms + one 100ms service pause should bound it", waited)
	}
	waitSpan(t, sp1, "the first record")
	waitSpan(t, sp2, "the second record")
}
