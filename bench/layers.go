package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/infer"
	"repro/internal/nids"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// timeMedian returns fn's cost in nanoseconds per call: the median of
// five repetitions of about rep each, at an iteration count fixed by a
// short calibration so the clock is read twice per repetition only.
func timeMedian(rep time.Duration, fn func()) float64 {
	fn() // warm buffers and pools outside the timed loops
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if el := time.Since(start); el >= rep/8 || el >= time.Millisecond {
			iters = max(1, int(float64(iters)*float64(rep)/float64(el)))
			break
		}
		iters *= 2
	}
	reps := make([]float64, 5)
	for r := range reps {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(reps)
}

// mallocsPerCall returns the heap allocations one call of fn makes,
// averaged over n calls after a warm-up call.
func mallocsPerCall(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerTimings calls each layer's public entry points on this
// workload's shapes — width F, batch rows m, request size n — and
// records the micro-timings. The server must be idle while it runs.
func layerTimings(m map[string]float64, w workload, fx *fixture, h *harness, rep time.Duration) error {
	art, err := serve.LoadArtifact(bytes.NewReader(fx.artBytes))
	if err != nil {
		return err
	}
	net, _, err := art.NewNetwork(nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
	if err != nil {
		return err
	}
	f := fx.pipe.Width()
	rows, n := w.BatchRows, w.ReqRecords
	rng := rand.New(rand.NewSource(1))
	randF32 := func(k int) []float32 {
		s := make([]float32, k)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}

	// tensor: the two GEMM shapes a CNN+GRU block lowers to.
	a, bias := randF32(rows*f), randF32(2*f)
	wConv, wGRU := randF32(f*f), randF32(f*2*f)
	dst := make([]float32, rows*2*f)
	conv := timeMedian(rep, func() { tensor.GemmBiasActF32(dst, a, wConv, bias, rows, f, f, tensor.ActReLU) })
	gru := timeMedian(rep, func() { tensor.GemmBiasActF32(dst, a, wGRU, bias, rows, f, 2*f, tensor.ActNone) })
	m["tensor.gemm_conv_us"] = conv / 1e3
	m["tensor.gemm_gru_us"] = gru / 1e3
	m["tensor.gemm_conv_gflops"] = 2 * float64(rows*f*f) / conv
	m["tensor.gemm_gru_gflops"] = 2 * float64(rows*f*2*f) / gru

	// infer: lowering, then one engine pass over encoded drive records.
	var plan *infer.Plan
	compile := make([]float64, 3)
	for i := range compile {
		start := time.Now()
		p, err := infer.Compile(net)
		if err != nil {
			return err
		}
		compile[i] = float64(time.Since(start)) / float64(time.Millisecond)
		plan = p
	}
	m["infer.compile_ms"] = median(compile)
	eng := plan.NewEngine()
	x64 := fx.encode(0, rows)
	in := eng.In(rows)
	for i, v := range x64.Data() {
		in[i] = float32(v)
	}
	run := timeMedian(rep, func() { eng.Run(rows) })
	m["infer.engine_run_us"] = run / 1e3
	m["infer.engine_rps"] = float64(rows) / run * 1e9
	m["infer.engine_gbps"] = float64(plan.WeightBytes()+plan.ActivationBytes(rows)) / run
	m["infer.gemm_share_pct"] = 100 * float64(w.Blocks) * (conv + gru) / run
	m["infer.plan_steps"] = float64(plan.Steps())
	m["infer.plan_weight_mb"] = float64(plan.WeightBytes()) / (1 << 20)
	m["infer.allocs_per_run"] = mallocsPerCall(50, func() { eng.Run(rows) })
	det, err := art.NewInferDetector()
	if err != nil {
		return err
	}
	recs := fx.requests(rows)[0]
	verdicts := make([]nids.Verdict, rows)
	m["infer.detect_batch_us"] = timeMedian(rep, func() { det.DetectBatch(recs, verdicts) }) / 1e3
	predict := timeMedian(rep, func() { net.Predict(x64) })
	m["nn.predict_us"] = predict / 1e3
	m["infer.f32_over_f64"] = predict / run
	rps1, err := engineChild(fx.artBytes, rows, 5*rep)
	if err != nil {
		return fmt.Errorf("engine child: %w", err)
	}
	m["infer.engine_rps_p1"] = rps1

	// data: one record through the fitted one-hot + scaler pipeline.
	row := make([]float64, f)
	m["data.encode_us_per_record"] = timeMedian(rep, func() { fx.pipe.ApplyInto(recs[0], row) }) / 1e3

	// wire: payload codecs and the frame layer at this workload's
	// request size.
	req := fx.requests(n)[0]
	enc := wire.NewRecordEncoder(fx.schema)
	var reqBuf []byte
	m["wire.req_encode_ns_per_record"] = timeMedian(rep, func() {
		reqBuf, err = enc.AppendScoreRequest(reqBuf[:0], 1, 1000, "", req)
	}) / float64(n)
	if err != nil {
		return err
	}
	var rb wire.RecordBuffer
	m["wire.req_decode_ns_per_record"] = timeMedian(rep, func() {
		var sr wire.ScoreRequest
		if sr, err = rb.SetPayload(reqBuf); err == nil {
			_, err = rb.Decode(&sr, fx.schema)
		}
	}) / float64(n)
	if err != nil {
		return err
	}
	version := art.Version()
	var respBuf []byte
	m["wire.resp_encode_ns_per_record"] = timeMedian(rep, func() {
		respBuf, err = wire.AppendScoreResponse(respBuf[:0], 1, version, verdicts[:n])
	}) / float64(n)
	if err != nil {
		return err
	}
	m["wire.resp_decode_ns_per_record"] = timeMedian(rep, func() {
		var sr wire.ScoreResponse
		if sr, err = wire.ParseScoreResponse(respBuf); err == nil {
			err = sr.DecodeVerdicts(verdicts[:n])
		}
	}) / float64(n)
	if err != nil {
		return err
	}
	var pipe bytes.Buffer
	fw, fr := wire.NewFrameWriter(&pipe), wire.NewFrameReader(&pipe)
	m["wire.frame_ns"] = timeMedian(rep, func() {
		if err = fw.Write(wire.FrameScore, reqBuf); err == nil {
			_, _, err = fr.Read()
		}
	})
	if err != nil {
		return err
	}

	// serve: the HTTP plane's JSON bodies, captured from one real
	// exchange so they are byte for byte what the public client sends
	// and the server answers.
	capture := &captureTripper{next: h.hc.Transport}
	cc := &serve.Client{BaseURL: h.baseURL, HTTP: &http.Client{Transport: capture}, MaxAttempts: 1}
	httpIn, httpOut, err := bytesOfOneRequest(&h.httpN, func() error { _, _, err := cc.Score(req); return err })
	if err != nil {
		return err
	}
	m["serve.http_req_bytes_per_record"] = float64(httpIn) / float64(n)
	m["serve.http_resp_bytes_per_record"] = float64(httpOut) / float64(n)
	body := struct {
		Records []serve.RecordJSON `json:"records"`
	}{Records: make([]serve.RecordJSON, n)}
	for i, r := range req {
		body.Records[i] = serve.RecordJSON{Numeric: r.Numeric, Categorical: r.Categorical}
	}
	m["serve.json_req_encode_ns_per_record"] = timeMedian(rep, func() { _, err = json.Marshal(body) }) / float64(n)
	if err != nil {
		return err
	}
	m["serve.json_resp_decode_ns_per_record"] = timeMedian(rep, func() {
		var resp struct {
			ModelVersion string              `json:"model_version"`
			Verdicts     []serve.VerdictJSON `json:"verdicts"`
		}
		err = json.Unmarshal(capture.respBody, &resp)
	}) / float64(n)
	if err != nil {
		return err
	}

	wc := wire.NewClient(h.wc.Addr)
	wc.Conns, wc.MaxAttempts = 1, 1
	defer wc.Close()
	wireIn, wireOut, err := bytesOfOneRequest(&h.wireN, func() error { _, _, err := wc.Score(req); return err })
	if err != nil {
		return err
	}
	m["wire.req_bytes_per_record"] = float64(wireIn) / float64(n)
	m["wire.resp_bytes_per_record"] = float64(wireOut) / float64(n)
	return nil
}

// bytesOfOneRequest warms a connection with one call, then returns the
// bytes a second call moved in and out at the server's listener.
func bytesOfOneRequest(n *byteCount, call func() error) (in, out int64, err error) {
	if err := call(); err != nil {
		return 0, 0, err
	}
	in0, out0 := n.in.Load(), n.out.Load()
	if err := call(); err != nil {
		return 0, 0, err
	}
	return n.in.Load() - in0, n.out.Load() - out0, nil
}

// captureTripper keeps the last exchange's response body.
type captureTripper struct {
	next     http.RoundTripper
	respBody []byte
}

func (c *captureTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	c.respBody, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(c.respBody))
	return resp, nil
}

// childEnv selects the engine child: a second copy of this binary run
// with GOMAXPROCS=1, because the GEMM worker pool is sized once, at
// first use, and cannot be re-sized in a process that already served.
// Its value is "rows,milliseconds"; the artifact arrives on stdin.
const childEnv = "PELICAN_BENCH_ENGINE_CHILD"

// engineChild runs the child and returns its single-CPU engine rate in
// records/s. The child has exited when it returns.
func engineChild(artBytes []byte, rows int, dur time.Duration) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", fmt.Sprintf("%s=%d,%d", childEnv, rows, max(1, dur.Milliseconds())))
	cmd.Stdin = bytes.NewReader(artBytes)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var rps float64
	if _, err := fmt.Sscan(string(out), &rps); err != nil {
		return 0, fmt.Errorf("child printed %q: %w", out, err)
	}
	return rps, nil
}

// engineChildMain is the child's whole program: load the artifact from
// r, lower it, time engine passes, print records/s.
func engineChildMain(spec string, r io.Reader, w io.Writer) error {
	var rows, ms int
	if _, err := fmt.Sscanf(spec, "%d,%d", &rows, &ms); err != nil {
		return fmt.Errorf("%s=%q: %w", childEnv, spec, err)
	}
	art, err := serve.LoadArtifact(r)
	if err != nil {
		return err
	}
	plan, err := art.Plan()
	if err != nil {
		return err
	}
	eng := plan.NewEngine()
	rng := rand.New(rand.NewSource(1))
	in := eng.In(rows)
	for i := range in {
		in[i] = float32(rng.NormFloat64())
	}
	ns := timeMedian(time.Duration(ms)*time.Millisecond/5, func() { eng.Run(rows) })
	_, err = fmt.Fprintf(w, "%.3f\n", float64(rows)/ns*1e9)
	return err
}
