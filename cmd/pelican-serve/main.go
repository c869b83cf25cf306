// Command pelican-serve hosts trained model artifacts as an HTTP/JSON
// scoring service built around a model registry: named slots (live,
// shadow, canary tags) each with their own batcher and replica shard,
// shadow-mode traffic mirroring with agreement counters, atomic
// shadow→live promotion, and rollback — plus dynamic micro-batching,
// and Prometheus metrics. With -loadgen it instead drives such a service
// and reports achieved QPS and latency percentiles.
//
// Usage:
//
//	pelican-serve -model model.plcn -addr 127.0.0.1:8080 -replicas 2
//	pelican-serve -model live.plcn -shadow candidate.plcn   # mirror + canary
//	pelican-serve -loadgen -target http://127.0.0.1:8080 -duration 5s -concurrency 8 -batch 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pelican-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pelican-serve", flag.ContinueOnError)
	var (
		model      = fs.String("model", "", "model artifact to serve live (written by pelican-train -save); omit with -state-dir to recover the recorded topology")
		stateDir   = fs.String("state-dir", "", "durable state directory (content-addressed artifact store + registry state file); every lifecycle op rewrites the state file, and a restart without -model recovers the exact pre-crash topology")
		shadow     = fs.String("shadow", "", "optional artifact to preload into the shadow slot (mirrored, promotable via /v2/promote)")
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		wireAddr   = fs.String("wire-addr", "", "also serve the binary wire transport on this address (e.g. 127.0.0.1:9090; empty disables)")
		replicas   = fs.Int("replicas", 2, "detector replicas (scoring shards) per model slot")
		maxBatch   = fs.Int("max-batch", 32, "dynamic batcher flush size")
		maxWait    = fs.Duration("max-wait", 2*time.Millisecond, "dynamic batcher flush deadline")
		queue      = fs.Int("queue", 1024, "batcher intake depth per slot, in requests (beyond -admit-watermark they get 429 first)")
		maxBody    = fs.Int64("max-body", 4<<20, "request body size cap in bytes (413 beyond)")
		noMirror   = fs.Bool("no-mirror", false, "disable duplicating live traffic onto the shadow slot")
		reqTimeout = fs.Duration("request-timeout", 5*time.Second, "scoring deadline budget; queued records past it are shed with 503 (negative disables)")
		watermark  = fs.Int("admit-watermark", 0, "records queued and not yet batched beyond which scoring requests fast-fail 429 (0 = -queue, negative disables)")
		chaosDelay = fs.Duration("chaos-score-delay", 0, "TESTING: inject this much extra latency into every replica's scoring batches")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty disables)")
		logLevel   = fs.String("log-level", "info", "structured log level: debug, info, warn, error")
		traceCap   = fs.Int("trace-cap", 512, "completed request traces retained for /debug/traces")

		loadgen     = fs.Bool("loadgen", false, "run as load generator instead of server")
		target      = fs.String("target", "http://127.0.0.1:8080", "loadgen: server base URL (model check + stage scrape even under -transport=wire)")
		transport   = fs.String("transport", "http", "loadgen: scoring transport to drive: http (/v2/detect-batch JSON) or wire (binary frames)")
		wireTarget  = fs.String("wire-target", "127.0.0.1:9090", "loadgen: wire server address for -transport=wire")
		duration    = fs.Duration("duration", 5*time.Second, "loadgen: how long to drive load")
		concurrency = fs.Int("concurrency", 8, "loadgen: concurrent client connections")
		batch       = fs.Int("batch", 8, "loadgen: records per scoring request")
		dataset     = fs.String("dataset", "nsl-kdd", "loadgen: dataset shape for generated flows (unsw-nb15 or nsl-kdd)")
		records     = fs.Int("records", 512, "loadgen: distinct records generated and cycled")
		seed        = fs.Int64("seed", 1, "loadgen: record generation seed")
		minAttacks  = fs.Int("min-attacks", 0, "loadgen: fail unless at least this many attack verdicts came back")
		minShed     = fs.Int("min-shed", 0, "loadgen: fail unless at least this many requests were shed (429/503) — overload-test assertion")
		maxP99      = fs.Duration("max-p99", 0, "loadgen: fail if accepted-request p99 latency exceeds this (0 = no bound)")
		jsonOut     = fs.String("json", "", "loadgen: also write the run summary (throughput, latency, stage breakdown) as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *loadgen {
		return runLoadgen(out, loadgenConfig{
			target: *target, transport: *transport, wireTarget: *wireTarget,
			duration: *duration, concurrency: *concurrency,
			batch: *batch, dataset: *dataset, records: *records, seed: *seed,
			minAttacks: *minAttacks, minShed: *minShed, maxP99: *maxP99,
			jsonOut: *jsonOut,
		})
	}
	cfg := serve.Config{
		Replicas: *replicas, MaxBatch: *maxBatch, MaxWait: *maxWait, QueueDepth: *queue,
		MaxBodyBytes: *maxBody, MirrorOff: *noMirror,
		RequestTimeout: *reqTimeout, AdmitWatermark: *watermark,
		TraceCap: *traceCap,
		Logger:   obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel)),
	}
	if *chaosDelay > 0 {
		inj := &chaos.Injector{}
		inj.SetScoreDelay(*chaosDelay)
		cfg.Chaos = inj
	}
	if *stateDir != "" {
		st, err := store.Open(*stateDir)
		if err != nil {
			return fmt.Errorf("-state-dir: %w", err)
		}
		cfg.Store = st
	}
	if *pprofAddr != "" {
		bound, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer stop()
		fmt.Fprintf(out, "pprof on http://%s/debug/pprof/\n", bound)
	}
	return runServer(out, *model, *shadow, *addr, *wireAddr, cfg)
}

func runServer(out io.Writer, model, shadow, addr, wireAddr string, cfg serve.Config) error {
	var srv *serve.Server
	switch {
	case model != "":
		// Fresh start: this artifact is the new truth, any recorded
		// topology is discarded.
		a, err := serve.LoadArtifactFile(model)
		if err != nil {
			return err
		}
		if srv, err = serve.New(a, cfg); err != nil {
			return err
		}
	case cfg.Store != nil:
		var err error
		if srv, err = serve.Recover(cfg); err != nil {
			return err
		}
		rep := srv.Recovery()
		if rep.StateError != "" {
			fmt.Fprintf(out, "registry state refused: %s\n", rep.StateError)
		}
		fmt.Fprintf(out, "recovered from journal/snapshot.json: %d slots restored, %d degraded in %s\n",
			len(rep.Restored), len(rep.Degraded), rep.Duration.Round(time.Millisecond))
		for tag, version := range rep.Restored {
			fmt.Fprintf(out, "  %s: %s\n", tag, version)
		}
		for _, d := range rep.Degraded {
			fmt.Fprintf(out, "  DEGRADED %s (%s): %s\n", d.Tag, d.Version, d.Reason)
		}
		if _, ok := rep.Restored["live"]; !ok {
			fmt.Fprintln(out, "no live slot recovered: /readyz answers 503 until a model is loaded")
		}
	default:
		return fmt.Errorf("-model is required (train one with: pelican-train -save model.plcn), or pass -state-dir to recover a recorded topology")
	}
	if shadow != "" {
		sa, err := serve.LoadArtifactFile(shadow)
		if err != nil {
			return fmt.Errorf("-shadow: %w", err)
		}
		if err := srv.LoadSlot("shadow", sa); err != nil {
			return fmt.Errorf("-shadow: %w", err)
		}
		fmt.Fprintf(out, "shadow slot: %s (version %s)\n", sa.ModelName, sa.Version())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if info, err := srv.InfoTag("live"); err == nil {
		fmt.Fprintf(out, "serving %s (version %s, %d features, %d classes) on http://%s\n",
			info.Model, info.Version, info.Features, info.Classes, ln.Addr())
	} else {
		fmt.Fprintf(out, "serving (no live model) on http://%s\n", ln.Addr())
	}
	fmt.Fprintf(out, "replicas=%d max-batch=%d max-wait=%s\n", cfg.Replicas, cfg.MaxBatch, cfg.MaxWait)
	fmt.Fprintf(out, "registry: /v2/models (list), /v2/load?tag= (stage), /v2/promote, /v2/rollback\n")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	httpSrv := newHTTPServer(srv.Handler(), cfg.RequestTimeout)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	if wireAddr != "" {
		wln, err := net.Listen("tcp", wireAddr)
		if err != nil {
			ln.Close()
			srv.Close()
			return fmt.Errorf("-wire-addr: %w", err)
		}
		fmt.Fprintf(out, "wire transport on %s\n", wln.Addr())
		go func() {
			if werr := srv.ServeWire(ctx, wln); werr != nil {
				fmt.Fprintf(out, "wire listener error: %v\n", werr)
			}
		}()
	}

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: reject new scoring requests on both planes, let
	// in-flight HTTP handlers finish, answer every in-flight wire frame
	// (GoAway, then wait for clients to collect and hang up), then drain
	// the batchers and workers.
	fmt.Fprintln(out, "shutting down: draining in-flight requests...")
	srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.ShutdownWire(shCtx); err != nil {
		return fmt.Errorf("wire shutdown: %w", err)
	}
	srv.Close()
	fmt.Fprintln(out, "shutdown complete")
	return nil
}

// newHTTPServer bounds how long a peer may take to deliver a request. The
// scoring deadline starts only once the body is decoded, so without these
// a connection that stalls mid-headers or mid-body pins a goroutine (and
// up to MaxBodyBytes) forever. Both derive from the scoring budget: the
// headers get one budget to arrive, and the whole request — whose read
// deadline net/http keeps armed while the handler runs — gets one to
// arrive plus one to be scored. A disabled budget (negative) disables
// them too.
func newHTTPServer(h http.Handler, requestTimeout time.Duration) *http.Server {
	hs := &http.Server{Handler: h}
	if requestTimeout > 0 {
		hs.ReadHeaderTimeout = requestTimeout
		hs.ReadTimeout = 2 * requestTimeout
		// Idle keep-alive connections would otherwise inherit ReadTimeout;
		// serve.Client pools them for 90s and must be the one to hang up.
		hs.IdleTimeout = 2 * time.Minute
	}
	return hs
}

type loadgenConfig struct {
	target      string
	transport   string // "http" or "wire"
	wireTarget  string
	duration    time.Duration
	concurrency int
	batch       int
	dataset     string
	records     int
	seed        int64
	minAttacks  int
	minShed     int
	maxP99      time.Duration
	jsonOut     string
}

// stageSummary is one stage's slice of the run, from the server's own
// stage histograms (scraped before and after, delta'd).
type stageSummary struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P95US  float64 `json:"p95_us"`
}

// loadgenSummary is the -json run report.
type loadgenSummary struct {
	Target     string                  `json:"target"`
	Transport  string                  `json:"transport"`
	DurationS  float64                 `json:"duration_s"`
	Requests   int                     `json:"requests"`
	Records    int                     `json:"records"`
	Shed       int                     `json:"shed"`
	Errors     int                     `json:"errors"`
	Attacks    int                     `json:"attacks"`
	RecordsPS  float64                 `json:"records_per_sec"`
	RequestsPS float64                 `json:"requests_per_sec"`
	P50US      float64                 `json:"p50_us"`
	P95US      float64                 `json:"p95_us"`
	P99US      float64                 `json:"p99_us"`
	MaxUS      float64                 `json:"max_us"`
	Stages     map[string]stageSummary `json:"stages,omitempty"`
	// Wire-transport client-side frame accounting (absent for HTTP runs):
	// bytes as framed on the socket, headers included.
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
	WireBytesIn  int64 `json:"wire_bytes_in,omitempty"`
}

// stageFamilies maps the printed stage names to their /metrics histogram
// families, in display order.
var stageFamilies = []struct{ stage, family string }{
	{"queue_wait", "pelican_serve_queue_wait_seconds"},
	{"batch_assembly", "pelican_serve_batch_assembly_seconds"},
	{"infer", "pelican_serve_infer_seconds"},
	{"encode", "pelican_serve_encode_seconds"},
}

// scrapeStages fetches the target's live-slot stage histograms. A missing
// /metrics or missing stage families (not a pelican-serve, or one with no
// live slot) returns nil — the stage breakdown is then simply omitted.
func scrapeStages(target string) map[string]*obs.PromHist {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		return nil
	}
	match := map[string]string{"slot": "live"}
	out := make(map[string]*obs.PromHist)
	for _, sf := range stageFamilies {
		if h := fams[sf.family].Histogram(match); h != nil {
			out[sf.stage] = h
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

type workerResult struct {
	requests  int
	records   int
	attacks   int
	shed      int // requests the server refused under overload (429/503)
	errors    int
	latencies []time.Duration
}

func runLoadgen(out io.Writer, cfg loadgenConfig) error {
	if cfg.batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}
	if cfg.records < 1 {
		return fmt.Errorf("-records must be >= 1")
	}
	var synthCfg synth.Config
	switch cfg.dataset {
	case "unsw-nb15":
		synthCfg = synth.UNSWNB15Config()
	case "nsl-kdd":
		synthCfg = synth.NSLKDDConfig()
	default:
		return fmt.Errorf("unknown dataset %q", cfg.dataset)
	}
	if cfg.transport != "http" && cfg.transport != "wire" {
		return fmt.Errorf("unknown -transport %q (http or wire)", cfg.transport)
	}
	gen, err := synth.New(synthCfg)
	if err != nil {
		return err
	}

	// Sanity-check the target model against the dataset shape before
	// hammering it. Every HTTP call goes out exactly once: a shed request
	// is counted, not retried.
	hc := &serve.Client{BaseURL: cfg.target, MaxAttempts: 1}
	info, err := hc.ModelTag("live")
	if err != nil {
		return fmt.Errorf("model check on %s: %w", cfg.target, err)
	}
	if want := gen.Schema().EncodedWidth(); info.Features != want {
		return fmt.Errorf("server model %s expects %d features, dataset %s encodes %d — use the matching -dataset",
			info.Model, info.Features, cfg.dataset, want)
	}
	fmt.Fprintf(out, "target %s: model %s version %s\n", cfg.target, info.Model, info.Version)

	// Pre-generate the request batches so the hot loop measures the
	// server, not the record generator.
	ds := gen.Generate(cfg.records, cfg.seed)
	batches := make([][]*data.Record, 0, (len(ds.Records)+cfg.batch-1)/cfg.batch)
	for lo := 0; lo < len(ds.Records); lo += cfg.batch {
		hi := min(lo+cfg.batch, len(ds.Records))
		b := make([]*data.Record, 0, hi-lo)
		for j := lo; j < hi; j++ {
			b = append(b, &ds.Records[j])
		}
		batches = append(batches, b)
	}

	// One scoring call per transport: the HTTP client, or one multiplexed
	// wire client shared by every worker.
	score := hc.Score
	var wc *wire.Client
	if cfg.transport == "wire" {
		wc = wire.NewClient(cfg.wireTarget)
		wc.Conns = min(cfg.concurrency, 8)
		if err := wc.Connect(); err != nil {
			return fmt.Errorf("connect wire %s: %w", cfg.wireTarget, err)
		}
		defer wc.Close()
		fmt.Fprintf(out, "wire target %s: model version %s (%d connections)\n", cfg.wireTarget, wc.ModelVersion(), wc.Conns)
		score = wc.Score
	}

	fmt.Fprintf(out, "driving %d clients x %d-record batches for %s over %s...\n", cfg.concurrency, cfg.batch, cfg.duration, cfg.transport)
	stagesBefore := scrapeStages(cfg.target)
	deadline := time.Now().Add(cfg.duration)
	results := make([]workerResult, cfg.concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for i := w; time.Now().Before(deadline); i++ {
				start := time.Now()
				verdicts, _, err := score(batches[i%len(batches)])
				if err != nil {
					// Overload shedding (429/503 on either plane, or a wire
					// server draining) is the server doing its job, not an
					// error: count it separately so an overload test can
					// assert sheds happened while accepted latency stayed
					// bounded.
					if _, ok := wire.ShedStatus(err); ok || wc != nil && wc.Draining() {
						res.shed++
					} else {
						res.errors++
					}
					continue
				}
				res.latencies = append(res.latencies, time.Since(start))
				res.requests++
				res.records += len(verdicts)
				for _, v := range verdicts {
					if v.IsAttack {
						res.attacks++
					}
				}
			}
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > cfg.duration {
		elapsed = cfg.duration // straggler requests don't inflate the window
	}

	var total workerResult
	for _, r := range results {
		total.requests += r.requests
		total.records += r.records
		total.attacks += r.attacks
		total.shed += r.shed
		total.errors += r.errors
		total.latencies = append(total.latencies, r.latencies...)
	}
	if total.requests == 0 {
		return fmt.Errorf("no successful requests (%d shed, %d errors)", total.shed, total.errors)
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(total.latencies)-1))
		return total.latencies[i]
	}
	fmt.Fprintf(out, "requests=%d records=%d shed=%d errors=%d attacks=%d\n",
		total.requests, total.records, total.shed, total.errors, total.attacks)
	fmt.Fprintf(out, "throughput: %.0f records/s (%.0f req/s)\n",
		float64(total.records)/elapsed.Seconds(), float64(total.requests)/elapsed.Seconds())
	fmt.Fprintf(out, "latency: p50=%s p95=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), total.latencies[len(total.latencies)-1].Round(time.Microsecond))

	// Per-stage breakdown, from the server's own stage histograms: the
	// delta between the pre- and post-run scrapes is this run's share, so
	// earlier traffic against the same server never pollutes it.
	stages := make(map[string]stageSummary)
	if after := scrapeStages(cfg.target); after != nil {
		fmt.Fprintf(out, "stage breakdown (live slot, server-side):\n")
		fmt.Fprintf(out, "  %-16s %10s %12s %12s\n", "stage", "count", "mean", "p95")
		for _, sf := range stageFamilies {
			h := after[sf.stage].Sub(stagesBefore[sf.stage])
			if h == nil || h.Count == 0 {
				continue
			}
			mean := time.Duration(h.Mean() * float64(time.Second))
			p95 := time.Duration(h.Quantile(0.95) * float64(time.Second))
			fmt.Fprintf(out, "  %-16s %10d %12s %12s\n", sf.stage, h.Count,
				mean.Round(time.Microsecond), p95.Round(time.Microsecond))
			stages[sf.stage] = stageSummary{
				Count:  h.Count,
				MeanUS: h.Mean() * 1e6,
				P95US:  h.Quantile(0.95) * 1e6,
			}
		}
	}

	if wc != nil {
		_, _, bytesOut, bytesIn := wc.Stats()
		fmt.Fprintf(out, "wire bytes: %.1f out + %.1f in per record (framed)\n",
			float64(bytesOut)/float64(total.records), float64(bytesIn)/float64(total.records))
	}

	if cfg.jsonOut != "" {
		summary := loadgenSummary{
			Target: cfg.target, Transport: cfg.transport, DurationS: elapsed.Seconds(),
			Requests: total.requests, Records: total.records,
			Shed: total.shed, Errors: total.errors, Attacks: total.attacks,
			RecordsPS:  float64(total.records) / elapsed.Seconds(),
			RequestsPS: float64(total.requests) / elapsed.Seconds(),
			P50US:      float64(pct(0.50).Microseconds()),
			P95US:      float64(pct(0.95).Microseconds()),
			P99US:      float64(pct(0.99).Microseconds()),
			MaxUS:      float64(total.latencies[len(total.latencies)-1].Microseconds()),
		}
		if len(stages) > 0 {
			summary.Stages = stages
		}
		if wc != nil {
			_, _, summary.WireBytesOut, summary.WireBytesIn = wc.Stats()
		}
		b, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(out, "summary written to %s\n", cfg.jsonOut)
	}

	if total.attacks < cfg.minAttacks {
		return fmt.Errorf("only %d attack verdicts, -min-attacks requires %d", total.attacks, cfg.minAttacks)
	}
	if total.shed < cfg.minShed {
		return fmt.Errorf("only %d requests shed, -min-shed requires %d (server is not shedding under this load)", total.shed, cfg.minShed)
	}
	if cfg.maxP99 > 0 {
		if p99 := pct(0.99); p99 > cfg.maxP99 {
			return fmt.Errorf("accepted-request p99 %s exceeds -max-p99 %s (shedding is not bounding latency)", p99.Round(time.Millisecond), cfg.maxP99)
		}
	}
	return nil
}
