package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wire"
)

// scale sizes one run. Every phase length derives from seconds, so a
// shorter run keeps the same shape.
type scale struct {
	seconds      float64 // measured time of one pass
	trainDiv     int     // divides each workload's training-set size
	driveRecords int     // drive-set size (the verdict-parity sample)
	setupDiscard int     // cold starts run and thrown away first
	setupReps    int     // cold starts timed at least; the medians are reported
	// setupFill keeps timing cold starts (up to maxSetupReps) until this
	// much time has gone into them: a 50 ms LuNet start needs more than
	// five repetitions for a steady median, a 0.6 s Residual-41 start
	// cannot afford more.
	setupFill time.Duration
}

const maxSetupReps = 25

func standardScale(seconds float64) scale {
	return scale{seconds: seconds, trainDiv: 1, driveRecords: 2048, setupDiscard: 1, setupReps: 5, setupFill: 1500 * time.Millisecond}
}

// checkScale is the smoke size `-check` and the tests use: every code
// path, a fraction of a second each.
func checkScale() scale {
	return scale{seconds: 0.3, trainDiv: 8, driveRecords: 128, setupReps: 1}
}

func (sc scale) part(share float64) time.Duration {
	return time.Duration(sc.seconds * share * float64(time.Second))
}

// Phase lengths as shares of scale.seconds. Untraced pass: closed
// third, open two thirds (10 s + 20 s at the default 30). Traced pass:
// an untraced and a traced closed phase (their difference is the
// tracing overhead), a traced open phase, three ladder rungs and the
// layer micro-timings. The warm-up precedes both and is not measured.
const (
	warmShare         = 1.0 / 15
	closedShare       = 1.0 / 3
	openShare         = 2.0 / 3
	tracedClosed      = 0.15
	tracedOpen        = 0.30
	ladderRung        = 0.075
	microShare        = 0.15
	timedMicroLoops   = 13 * 5 // micro-timed functions × repetitions each
	closedWindows     = 5
	openWindows       = 10
	lateSuspectUS     = 2000.0 // generator lateness p99 beyond which a run is suspect (see sleepUntil)
	rateSuspectRatio  = 2.5    // closed capacity below this multiple of the fixed rate: suspect
	stealSuspectShare = 0.05   // hypervisor steal beyond this share of the CPU time: suspect
	// scrapeSettle precedes a /metrics scrape on an idle server: a request's
	// latency and encode histograms are observed just after its reply is
	// handed to the writer, so the last one can trail its client's return.
	scrapeSettle = 2 * time.Millisecond
)

// runResult is one pass of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	// Notes are the self-checks that fired: "suspect: ..." marks a run
	// whose numbers should not be trusted, "warn: ..." a finding.
	Notes []string `json:"notes,omitempty"`
}

// runner carries what the passes of one invocation share.
type runner struct {
	seed     int64
	sc       scale
	conns    int // P: connections and closed-loop clients
	fixtures fixtureCache
	spans    *spanLog // nil unless tracing
}

// pct is part as a percentage of whole, 0 when there is no whole (a
// phase too short to complete a request must not print NaN).
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// usage is the process's CPU time and peak RSS.
func usage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// stolenTicks is the CPU time the hypervisor gave to someone else since
// boot (the steal column of /proc/stat, in USER_HZ ticks), or -1 where
// that is not readable.
func stolenTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// sampleCPU reads the process's CPU time at the start of a phase and
// at each of its n window boundaries, and delivers the n+1 readings
// when the phase's time is up.
func sampleCPU(dur time.Duration, n int) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	start := time.Now()
	first, _ := usage()
	go func() {
		at := []time.Duration{first}
		for i := 1; i <= n; i++ {
			sleepUntil(start, dur*time.Duration(i)/time.Duration(n))
			cpu, _ := usage()
			at = append(at, cpu)
		}
		out <- at
	}()
	return out
}

// cpuPerKRecord is the CPU time (user + system, whole process: server,
// clients and generator) spent per thousand records scored, taken
// window by window and reported as the median, so a burst of host
// contention in one window does not move it.
func cpuPerKRecord(cpuAt []time.Duration, res []reqResult, dur time.Duration, reqRecords int) float64 {
	n := len(cpuAt) - 1
	records := make([]float64, n)
	for _, r := range res {
		if i := int(r.done * time.Duration(n) / dur); r.out == outOK && i >= 0 && i < n {
			records[i] += float64(reqRecords)
		}
	}
	var per []float64
	for i := 0; i < n; i++ {
		if records[i] > 0 {
			per = append(per, float64(cpuAt[i+1]-cpuAt[i])/float64(time.Millisecond)/records[i]*1000)
		}
	}
	return median(per)
}

// openSummary condenses an open phase's results.
type openSummary struct {
	counts               phaseCounts
	p50, p95, p99, max   float64 // ms, from the due time
	p95All               float64 // ms, whole phase, no windows
	callMeanUS           float64 // sent → returned
	lateP99US, lateMaxUS float64 // sent − due
	inflightMax          int32
	growing              bool
}

func summarizeOpen(res []reqResult, dur time.Duration) openSummary {
	s := openSummary{counts: countOutcomes(res), growing: backlogGrowing(res)}
	lat := okLatencies(res, byDue)
	s.p50 = windowedMedian(lat, dur.Seconds(), openWindows, func(v []float64) float64 { return percentile(v, 0.50) })
	s.p95 = windowedMedian(lat, dur.Seconds(), openWindows, func(v []float64) float64 { return percentile(v, 0.95) })
	all := sortedValues(lat)
	s.p95All = percentile(all, 0.95)
	s.p99 = percentile(all, 0.99)
	if len(all) > 0 {
		s.max = all[len(all)-1]
	}
	var calls, late []float64
	for _, r := range res {
		late = append(late, float64(r.sent-r.due)/float64(time.Microsecond))
		if r.out == outOK {
			calls = append(calls, float64(r.done-r.sent)/float64(time.Microsecond))
		}
		s.inflightMax = max(s.inflightMax, r.inflight)
	}
	s.callMeanUS = mean(calls)
	sort.Float64s(late)
	s.lateP99US = percentile(late, 0.99)
	if len(late) > 0 {
		s.lateMaxUS = late[len(late)-1]
	}
	return s
}

// closedRPS is the closed phase's throughput: records with correct
// verdicts completed per second, the median over equal windows.
func closedRPS(res []reqResult, dur time.Duration, reqRecords int) float64 {
	var done []timedValue
	for _, r := range res {
		if r.out == outOK {
			done = append(done, timedValue{at: r.done.Seconds(), v: float64(reqRecords)})
		}
	}
	perWindow := windowedMedian(done, dur.Seconds(), closedWindows, func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	})
	return perWindow / (dur.Seconds() / closedWindows)
}

// run executes one pass of w — untraced (end-to-end metrics) or traced
// (per-layer metrics) — against a fresh in-process deployment.
func (r *runner) run(w workload, traced bool) (*runResult, error) {
	fx, err := r.fixtures.get(w, r.seed, r.sc)
	if err != nil {
		return nil, err
	}
	reqs := fx.requests(w.ReqRecords)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: drive set smaller than one request", w.Name)
	}
	clients := r.conns * w.ClientsPerConn
	m := make(map[string]float64)
	res := &runResult{Workload: w.Name, Traced: traced, Metrics: m}
	var spans *spanLog
	if traced {
		spans = r.spans
	}

	h, setups, err := r.coldStarts(fx, w, reqs[0], spans)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer h.close()
	setupMedian := func(pick func(setupTimes) time.Duration) float64 {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = pick(st).Seconds()
		}
		return median(v)
	}

	// The request function every phase shares: score through the public
	// client, check the count and every verdict against the f64 reference.
	var clientRecords atomic.Int64
	served := make([]int, len(fx.drive))
	for i := range served {
		served[i] = -1
	}
	// check sends request ri; the parity pass also records what was served.
	check := func(ri int, record bool) (outcome, string) {
		verdicts, xid, err := h.score(reqs[ri])
		if err != nil {
			if _, shed := wire.ShedStatus(err); shed {
				return outShed, xid
			}
			return outFailed, xid
		}
		clientRecords.Add(int64(len(verdicts)))
		if len(verdicts) != len(reqs[ri]) {
			return outWrongCount, xid
		}
		out := outOK
		for j, v := range verdicts {
			i := ri*w.ReqRecords + j
			if record {
				served[i] = v.Class
			}
			if v.Class != fx.refClass[i] && !fx.nearTie[i] {
				out = outMismatch
			}
		}
		return out, xid
	}
	call := func(seq int) (outcome, string) { return check(seq%len(reqs), false) }
	// countPhase tallies a phase; the HTTP client's shed answers are only
	// visible at the transport, so they are moved out of "failed" here.
	shedSeen := h.rt.shed.Load()
	countPhase := func(rs []reqResult) phaseCounts {
		c := countOutcomes(rs)
		now := h.rt.shed.Load()
		moved := min(now-shedSeen, c.failed)
		shedSeen = now
		c.failed -= moved
		c.shed += moved
		return c
	}

	scrape0, err := h.scrape()
	if err != nil {
		return nil, err
	}

	// Verdict parity: every drive request exactly once, then warm up.
	parity := countPhase(runEach(clients, len(reqs), func(seq int) (outcome, string) { return check(seq, true) }))
	conf := metrics.NewConfusion(fx.schema.NumClasses())
	var compared, matched, tieFlips int
	for i, cls := range served {
		if i >= len(reqs)*w.ReqRecords {
			break // tail records that fill no whole request are never sent
		}
		if cls >= 0 {
			conf.Add(fx.labels[i], cls)
		}
		switch {
		case fx.nearTie[i]:
			if cls != fx.refClass[i] {
				tieFlips++
			}
		default:
			compared++
			if cls == fx.refClass[i] {
				matched++
			}
		}
	}
	if compared == 0 {
		return nil, fmt.Errorf("%s: every drive record is a near-tie", w.Name)
	}
	verdictMatch := pct(float64(matched), float64(compared))
	runClosed(clients, r.sc.part(warmShare), call)

	total := parity
	var closedDur, openDur time.Duration
	if traced {
		closedDur, openDur = r.sc.part(tracedClosed), r.sc.part(tracedOpen)
	} else {
		closedDur, openDur = r.sc.part(closedShare), r.sc.part(openShare)
	}

	// Closed phase(s).
	stolen0, measured0 := stolenTicks(), time.Now()
	var plainRPS float64
	if traced {
		plainRPS = closedRPS(runClosed(clients, closedDur, call), closedDur, w.ReqRecords)
		spans.begin(w.Name + "/closed")
	}
	closedStart := spans.offset()
	closedRes := runClosed(clients, closedDur, call)
	spans.addPhase(closedStart, closedRes)
	closedCounts := countPhase(closedRes)
	total.add(closedCounts)
	rps := closedRPS(closedRes, closedDur, w.ReqRecords)

	// Open phase at the workload's fixed rate.
	reqRate := w.OpenRate / float64(w.ReqRecords)
	schedule := func(mult float64, dur time.Duration) []time.Duration {
		if w.Poisson {
			return poissonSchedule(reqRate*mult, dur, r.seed)
		}
		return evenSchedule(reqRate*mult, dur)
	}
	spans.begin(w.Name + "/open")
	time.Sleep(scrapeSettle)
	scrapeA, err := h.scrape()
	if err != nil {
		return nil, err
	}
	bytes0, records0 := h.listener().total(), clientRecords.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	openStart := spans.offset()
	cpuAt := sampleCPU(openDur, openWindows)
	openRes := runOpen(schedule(1, openDur), call)
	_, maxRSS := usage()
	cpuMS := cpuPerKRecord(<-cpuAt, openRes, openDur, w.ReqRecords)
	runtime.ReadMemStats(&ms1)
	spans.addPhase(openStart, openRes)
	spans.end()
	bytes1, records1 := h.listener().total(), clientRecords.Load()
	time.Sleep(scrapeSettle)
	scrapeB, err := h.scrape()
	if err != nil {
		return nil, err
	}
	open := summarizeOpen(openRes, openDur)
	open.counts = countPhase(openRes)
	total.add(open.counts)
	openRecords := float64(records1 - records0)
	if openRecords == 0 {
		return nil, fmt.Errorf("%s: the open phase scored nothing", w.Name)
	}
	runtime.GC()
	runtime.GC() // twice: the first cycle only moves sync.Pool contents to the victim cache
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	if !traced {
		m["setup_s"] = setupMedian(func(st setupTimes) time.Duration { return st.total })
		m["throughput_rps"] = rps
		m["lat_p50_ms"] = open.p50
		m["lat_p95_ms"] = open.p95
		m["cpu_ms_per_krecord"] = cpuMS
		m["ok_pct"] = pct(float64(total.ok), float64(total.attempted))
		m["verdict_match_pct"] = verdictMatch
		m["net_bytes_per_record"] = float64(bytes1-bytes0) / openRecords
		m["mem_live_mb"] = float64(live.HeapAlloc) / (1 << 20)
		if rps < rateSuspectRatio*w.OpenRate {
			res.Notes = append(res.Notes, fmt.Sprintf("suspect: throughput_rps %.0f < %.1f x the fixed rate %.0f: the rate is outside the repeatable region on this machine", rps, rateSuspectRatio, w.OpenRate))
		}
	} else {
		ms := func(pick func(setupTimes) time.Duration) float64 { return setupMedian(pick) * 1000 }
		m["setup.load_artifact_ms"] = ms(func(st setupTimes) time.Duration { return st.load })
		m["setup.new_server_ms"] = ms(func(st setupTimes) time.Duration { return st.newServer })
		m["setup.connect_ms"] = ms(func(st setupTimes) time.Duration { return st.connect })
		m["setup.first_score_ms"] = ms(func(st setupTimes) time.Duration { return st.firstScore })
		m["setup.artifact_mb"] = float64(len(fx.artBytes)) / (1 << 20)

		both := closedCounts
		both.add(open.counts)
		m["client.requests_sent"] = float64(both.attempted)
		m["client.requests_ok"] = float64(both.ok)
		m["client.requests_failed"] = float64(both.failed + both.wrongCount + both.mismatch)
		m["client.requests_shed"] = float64(both.shed)
		m["client.fail_pct"] = pct(float64(total.notOK()), float64(total.attempted))
		m["client.call_us_mean"] = open.callMeanUS
		m["client.closed_p50_ms"] = percentile(sortedValues(okLatencies(closedRes, bySent)), 0.50)
		m["client.lat_p99_ms"] = open.p99
		m["client.lat_max_ms"] = open.max
		m["client.sched_late_p99_us"] = open.lateP99US
		m["client.sched_late_max_us"] = open.lateMaxUS
		m["client.inflight_max"] = float64(open.inflightMax)
		m["trace.overhead_pct"] = pct(plainRPS-rps, plainRPS)

		stageMetrics(m, scrapeA, scrapeB)
		m["recon.transport_us"] = m["client.call_us_mean"] - m["serve.request_us_mean"]
		m["recon.server_self_us"] = m["serve.request_us_mean"] - m["serve.queue_wait_us_mean"] - m["serve.infer_us_mean"] - m["serve.encode_us_mean"]
		m["recon.unexplained_pct"] = pct(math.Abs(m["recon.server_self_us"]), m["serve.request_us_mean"])
		if m["recon.unexplained_pct"] > 15 {
			res.Notes = append(res.Notes, fmt.Sprintf("warn: recon.unexplained_pct %.1f > 15: the server's stage means do not sum to its request latency", m["recon.unexplained_pct"]))
		}

		m["proc.alloc_bytes_per_record"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / openRecords
		m["proc.mallocs_per_record"] = float64(ms1.Mallocs-ms0.Mallocs) / openRecords
		m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		m["proc.rss_peak_mb"] = float64(maxRSS) / 1024
		bin := conf.Binary(0)
		m["nids.dr_pct"] = 100 * bin.DR()
		m["nids.far_pct"] = 100 * bin.FAR()
		m["nids.near_tie_flips"] = float64(tieFlips)

		// Ladder: the same arrival process at 2x, 3x and 4x the fixed rate.
		rungOK := func(s openSummary) bool {
			return s.p95All <= w.P95LimitMS && float64(s.counts.ok) >= 0.999*float64(s.counts.attempted) && !s.growing
		}
		maxOK := 0.0
		if rungOK(open) {
			maxOK = w.OpenRate
		}
		for _, mult := range []int{2, 3, 4} {
			dur := r.sc.part(ladderRung)
			rung := runOpen(schedule(float64(mult), dur), call)
			s := summarizeOpen(rung, dur)
			s.counts = countPhase(rung) // rung outcomes are diagnostic: not part of ok_pct
			m[fmt.Sprintf("client.ladder_p95_ms_x%d", mult)] = s.p95All
			if rungOK(s) {
				maxOK = w.OpenRate * float64(mult)
			}
		}
		m["client.ladder_max_ok_rps"] = maxOK
	}
	if stolen := stolenTicks() - stolen0; stolen0 >= 0 {
		const userHZ = 100
		if share := float64(stolen) / userHZ / (time.Since(measured0).Seconds() * float64(runtime.NumCPU())); share > stealSuspectShare {
			res.Notes = append(res.Notes, fmt.Sprintf("suspect: the hypervisor withheld %.0f%% of the CPU time during the measured phases", 100*share))
		}
	}
	if open.lateP99US > lateSuspectUS {
		res.Notes = append(res.Notes, fmt.Sprintf("suspect: client.sched_late_p99_us %.0f > %.0f: the load generator itself ran late", open.lateP99US, lateSuspectUS))
	}

	// Conservation: every record the server says it scored for a request
	// is a record some client call got a verdict for.
	time.Sleep(scrapeSettle)
	scrape1, err := h.scrape()
	if err != nil {
		return nil, err
	}
	gap := sampleSum(scrape1, "pelican_serve_records_total", nil) - sampleSum(scrape0, "pelican_serve_records_total", nil) - float64(clientRecords.Load())
	res.Attempted, res.Failed = total.attempted, total.notOK()
	res.Correct = res.Failed == 0 && matched == compared && gap == 0
	if traced {
		m["serve.conservation_gap"] = gap
		// Last, on the now idle deployment: its few extra requests are
		// outside every count above.
		if err := layerTimings(m, w, fx, h, r.sc.part(microShare)/timedMicroLoops); err != nil {
			return nil, fmt.Errorf("%s: layer timings: %w", w.Name, err)
		}
	}
	return res, nil
}

// coldStarts times repeated cold starts from the artifact's bytes and
// returns the last deployment — the one the pass measures — with the
// timings of the kept repetitions.
func (r *runner) coldStarts(fx *fixture, w workload, first []*data.Record, spans *spanLog) (*harness, []setupTimes, error) {
	var h *harness
	var setups []setupTimes
	var spent time.Duration
	for i := 0; len(setups) < r.sc.setupReps || (spent < r.sc.setupFill && len(setups) < maxSetupReps); i++ {
		if h != nil {
			h.close()
		}
		runtime.GC()
		var st setupTimes
		var err error
		if h, st, err = startHarness(fx.artBytes, w.Plane, r.conns, first, spans); err != nil {
			return nil, nil, err
		}
		if i >= r.sc.setupDiscard {
			setups = append(setups, st)
			spent += st.total
		}
	}
	return h, setups, nil
}

// sampleSum adds up family name's samples whose labels include match.
func sampleSum(fams map[string]*obs.PromFamily, name string, match map[string]string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	sum := 0.0
samples:
	for _, s := range f.Samples {
		for k, v := range match {
			if s.Labels[k] != v {
				continue samples
			}
		}
		sum += s.Value
	}
	return sum
}

// stageMetrics turns the deltas of the server's own /metrics families
// between two scrapes into the serve.* rows: histogram means in µs and
// counter deltas.
func stageMetrics(m map[string]float64, a, b map[string]*obs.PromFamily) {
	live := map[string]string{"slot": "live"}
	meanUS := func(family string, match map[string]string) float64 {
		return 1e6 * b[family].Histogram(match).Sub(a[family].Histogram(match)).Mean()
	}
	delta := func(family string) float64 { return sampleSum(b, family, nil) - sampleSum(a, family, nil) }
	m["serve.request_us_mean"] = meanUS("pelican_serve_request_seconds", nil)
	m["serve.queue_wait_us_mean"] = meanUS("pelican_serve_queue_wait_seconds", live)
	m["serve.batch_assembly_us_mean"] = meanUS("pelican_serve_batch_assembly_seconds", live)
	m["serve.infer_us_mean"] = meanUS("pelican_serve_infer_seconds", live)
	m["serve.encode_us_mean"] = meanUS("pelican_serve_encode_seconds", live)
	m["serve.batch_size_mean"] = meanUS("pelican_serve_batch_size", live) / 1e6
	m["serve.batches"] = delta("pelican_serve_batches_total")
	m["serve.shed"] = delta("pelican_serve_shed_total")
	m["serve.expired"] = delta("pelican_serve_deadline_expired_total")
	m["serve.request_errors"] = delta("pelican_serve_request_errors_total") // 4xx + 5xx
}

// runEach performs requests 0..n-1 exactly once each from clients
// goroutines and returns their results in sequence order.
func runEach(clients, n int, call callFn) []reqResult {
	res := make([]reqResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seq := int(next.Add(1) - 1)
				if seq >= n {
					return
				}
				sent := time.Since(start)
				out, xid := call(seq)
				res[seq] = reqResult{due: sent, sent: sent, done: time.Since(start), out: out, xid: xid}
			}
		}()
	}
	wg.Wait()
	return res
}
