package main

import (
	"fmt"

	"repro/internal/synth"
)

// workload is one fixed traffic mix. Everything the generated inputs
// depend on besides -seed is in this table; BENCHMARK.json names the
// same four and TestCatalogMatchesBenchmarkJSON keeps the two in step.
type workload struct {
	Name    string
	Model   string // internal/models registry name
	Dataset func() synth.Config
	Plane   string // "wire" or "http"
	// ReqRecords is the records per request; BatchRows the rows m the
	// scoring engine sees per pass (what the compute micro-timings use).
	// With ReqRecords = MaxBatch a request is exactly one batch; at one
	// record per request the batcher coalesces about half a batch.
	ReqRecords int
	BatchRows  int
	// Blocks is the model's CNN+GRU block count: each block lowers to
	// one conv GEMM and one GRU GEMM (infer.gemm_share_pct uses it).
	Blocks int
	// ClientsPerConn is the closed-loop clients per connection.
	ClientsPerConn int
	// OpenRate is the open phase's fixed offered load in records/s —
	// about a quarter of seed capacity on the 2-core reference box, the
	// region where latency repeats run to run (about half did not).
	OpenRate float64
	Poisson  bool
	// P95LimitMS is the latency limit of the ladder's "highest rate
	// that still meets it" figure.
	P95LimitMS float64
	// Training set size and epochs: enough for the detector to separate
	// attack from normal on the synthetic corpus, small enough that
	// set-up stays a few seconds.
	TrainRecords, Epochs int
	Why                  string
}

var workloads = []workload{
	{
		Name: "res41_unsw_wire_b32", Model: "pelican", Dataset: synth.UNSWNB15Config, Plane: "wire",
		ReqRecords: 32, BatchRows: 32, Blocks: 10, ClientsPerConn: 1,
		OpenRate: 1000, P95LimitMS: 50, TrainRecords: 256, Epochs: 2,
		Why: "Residual-41 (Pelican), UNSW-NB15 196 to 10, wire, 32 records/request, open 1000 rec/s even: compute-bound, tensor+infer ~90% of CPU; kernel, plan and engine work shows here, codec work does not",
	},
	{
		Name: "lunet_nsl_http_b32", Model: "lunet", Dataset: synth.NSLKDDConfig, Plane: "http",
		ReqRecords: 32, BatchRows: 32, Blocks: 3, ClientsPerConn: 1,
		OpenRate: 6000, P95LimitMS: 10, TrainRecords: 1024, Epochs: 3,
		Why: "LuNet, NSL-KDD 121 to 5, HTTP/JSON, 32 records/request, open 6000 rec/s even: the serve HTTP codec and encoding/json dominate (~20 mallocs/record vs 1 on wire); scoring-core and JSON work shows here",
	},
	{
		Name: "lunet_nsl_wire_b32", Model: "lunet", Dataset: synth.NSLKDDConfig, Plane: "wire",
		ReqRecords: 32, BatchRows: 32, Blocks: 3, ClientsPerConn: 1,
		OpenRate: 8000, P95LimitMS: 10, TrainRecords: 1024, Epochs: 3,
		Why: "same model and records as the HTTP row over wire, open 8000 rec/s even: the hub; vs http only the plane differs (wire/http ratio), vs res41 only the model differs; frame codec + batcher",
	},
	{
		Name: "lunet_nsl_wire_b1", Model: "lunet", Dataset: synth.NSLKDDConfig, Plane: "wire",
		ReqRecords: 1, BatchRows: 16, Blocks: 3, ClientsPerConn: 8,
		OpenRate: 1000, Poisson: true, P95LimitMS: 10, TrainRecords: 1024, Epochs: 3,
		Why: "same model over wire, 1 record/request, 8 in flight per connection, open 1000 rec/s seeded Poisson: the batcher must coalesce requests; per-request cost (frame, CRC, id, MaxWait) is ~85% of CPU",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef is one catalogued metric. Bound is the relative worsening
// of the median that counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the nine metrics a user of the scoring service sees,
// reported by the untraced pass. The bounds were set from the spreads
// measured on the reference box (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.18},
	{"lat_p50_ms", "ms", "lower", 0.22},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_krecord", "ms", "lower", 0.25},
	{"ok_pct", "%", "higher", 0.0002},
	{"verdict_match_pct", "%", "higher", 0.0002},
	{"net_bytes_per_record", "B", "lower", 0.01},
	{"mem_live_mb", "MB", "lower", 0.05},
}

// perLayer are the single-layer metrics the traced pass reports, in the
// order GEMM → plan/engine → encode → codecs → server stages → client →
// reconciliation → set-up → process → detection quality.
var perLayer = []metricDef{
	{"tensor.gemm_conv_us", "us", "lower", 0},
	{"tensor.gemm_gru_us", "us", "lower", 0},
	{"tensor.gemm_conv_gflops", "gflop/s", "higher", 0},
	{"tensor.gemm_gru_gflops", "gflop/s", "higher", 0},
	{"infer.compile_ms", "ms", "lower", 0},
	{"infer.engine_run_us", "us", "lower", 0},
	{"infer.engine_rps", "1/s", "higher", 0},
	{"infer.engine_rps_p1", "1/s", "higher", 0},
	{"infer.engine_gbps", "GB/s", "higher", 0},
	{"infer.gemm_share_pct", "%", "lower", 0},
	{"infer.detect_batch_us", "us", "lower", 0},
	{"infer.f32_over_f64", "ratio", "higher", 0},
	{"infer.plan_steps", "count", "lower", 0},
	{"infer.plan_weight_mb", "MB", "lower", 0},
	{"infer.allocs_per_run", "count", "lower", 0},
	{"nn.predict_us", "us", "lower", 0},
	{"data.encode_us_per_record", "us", "lower", 0},
	{"wire.req_encode_ns_per_record", "ns", "lower", 0},
	{"wire.req_decode_ns_per_record", "ns", "lower", 0},
	{"wire.resp_encode_ns_per_record", "ns", "lower", 0},
	{"wire.resp_decode_ns_per_record", "ns", "lower", 0},
	{"wire.frame_ns", "ns", "lower", 0},
	{"wire.req_bytes_per_record", "B", "lower", 0},
	{"wire.resp_bytes_per_record", "B", "lower", 0},
	{"serve.json_req_encode_ns_per_record", "ns", "lower", 0},
	{"serve.json_resp_decode_ns_per_record", "ns", "lower", 0},
	{"serve.http_req_bytes_per_record", "B", "lower", 0},
	{"serve.http_resp_bytes_per_record", "B", "lower", 0},
	{"serve.request_us_mean", "us", "lower", 0},
	{"serve.queue_wait_us_mean", "us", "lower", 0},
	{"serve.batch_assembly_us_mean", "us", "lower", 0},
	{"serve.infer_us_mean", "us", "lower", 0},
	{"serve.encode_us_mean", "us", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.batches", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.request_errors", "count", "lower", 0},
	{"serve.conservation_gap", "count", "lower", 0},
	{"client.requests_sent", "count", "higher", 0},
	{"client.requests_ok", "count", "higher", 0},
	{"client.requests_failed", "count", "lower", 0},
	{"client.requests_shed", "count", "lower", 0},
	{"client.fail_pct", "%", "lower", 0},
	{"client.call_us_mean", "us", "lower", 0},
	{"client.closed_p50_ms", "ms", "lower", 0},
	{"client.lat_p99_ms", "ms", "lower", 0},
	{"client.lat_max_ms", "ms", "lower", 0},
	{"client.sched_late_p99_us", "us", "lower", 0},
	{"client.sched_late_max_us", "us", "lower", 0},
	{"client.inflight_max", "count", "lower", 0},
	{"client.ladder_p95_ms_x2", "ms", "lower", 0},
	{"client.ladder_p95_ms_x3", "ms", "lower", 0},
	{"client.ladder_p95_ms_x4", "ms", "lower", 0},
	{"client.ladder_max_ok_rps", "1/s", "higher", 0},
	{"recon.transport_us", "us", "lower", 0},
	{"recon.server_self_us", "us", "lower", 0},
	{"recon.unexplained_pct", "%", "lower", 0},
	{"setup.load_artifact_ms", "ms", "lower", 0},
	{"setup.new_server_ms", "ms", "lower", 0},
	{"setup.connect_ms", "ms", "lower", 0},
	{"setup.first_score_ms", "ms", "lower", 0},
	{"setup.artifact_mb", "MB", "lower", 0},
	{"proc.alloc_bytes_per_record", "B", "lower", 0},
	{"proc.mallocs_per_record", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.rss_peak_mb", "MB", "lower", 0},
	{"nids.dr_pct", "%", "higher", 0},
	{"nids.far_pct", "%", "lower", 0},
	{"nids.near_tie_flips", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
