// Command bench is the repository's one performance ledger: four fixed
// serving workloads, each trained from -seed, served in-process at
// product defaults (serve.Config{}) behind byte-counting loopback
// listeners and driven through the public clients — a closed phase for
// capacity, an open fixed-rate phase for latency timed from the due
// time — with every verdict checked against the float64 graph.
//
//	go run ./bench -seed 1                  all four workloads, end-to-end metrics
//	go run ./bench -seed 1 -trace 1         the per-layer metrics (traced pass)
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	go run ./bench -repeat 5                run-to-run spread against the bounds
//	go run ./bench -check                   sub-second smoke of every code path
//
// With -workload, the last line of standard output is the JSON object
// BENCHMARK.json's contract asks for. README.md is the catalogue.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := engineChildMain(spec, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench engine child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command line. -trace takes a value (0 or 1) because
// that is how the PR driver passes it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
	check    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload by name and end with the driver's JSON line (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the training set, drive set and Poisson schedule")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds per pass; every phase is a fixed share of it")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics (untraced pass); 1: per-layer metrics (traced pass)")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as JSON lines to this file")
	fs.IntVar(&o.repeat, "repeat", 1, "run the whole set this many times and report each metric's spread against its bound")
	fs.BoolVar(&o.check, "check", false, "smoke: all four workloads, both passes, a fraction of a second each")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds %g: want a positive number", o.seconds)
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat %d: want at least 1", o.repeat)
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	r := &runner{seed: o.seed, sc: standardScale(o.seconds), conns: min(runtime.NumCPU(), 4)}
	passes := []bool{o.trace == 1}
	if o.check {
		r.sc = checkScale()
		passes = []bool{false, true}
	}
	if o.check || o.trace == 1 {
		r.spans = newSpanLog()
	}
	env := stampEnv(o.seed, r.conns)
	fmt.Fprintln(out, env)

	var sets [][]*runResult
	for rep := 0; rep < o.repeat; rep++ {
		var set []*runResult
		for _, w := range selected {
			for _, traced := range passes {
				res, err := r.run(w, traced)
				if err != nil {
					return err
				}
				printResult(out, res)
				set = append(set, res)
			}
		}
		sets = append(sets, set)
	}
	if o.traceOut != "" && r.spans != nil {
		if err := r.spans.writeFile(o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d spans to %s\n", len(r.spans.spans), o.traceOut)
	}
	if o.repeat > 1 {
		return reportSpread(out, sets)
	}
	if o.workload != "" && !o.check {
		return json.NewEncoder(out).Encode(driverLine(sets[0][0]))
	}
	return json.NewEncoder(out).Encode(struct {
		Env     string       `json:"env"`
		Results []*runResult `json:"results"`
	}{env, sets[0]})
}

// defsFor is the catalogue slice a pass reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints one pass: every metric by name with its unit, in
// catalogue order, then any self-check that fired.
func printResult(out io.Writer, res *runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "== %s (%s pass): attempted %d, failed %d, correct %v\n", res.Workload, pass, res.Attempted, res.Failed, res.Correct)
	for _, d := range defsFor(res.Traced) {
		fmt.Fprintf(out, "%-40s %16.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "%s: %s\n", res.Workload, n)
	}
}

// driverLine is the last-line JSON object of a single-workload run.
func driverLine(res *runResult) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value)
	for _, d := range defsFor(res.Traced) {
		ms[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms}
}

// reportSpread prints, per workload and end-to-end metric, the median,
// quartiles, interquartile spread (what the bound is judged by) and
// full range over the repeated sets, and fails when a spread exceeds
// its bound: such a metric cannot resolve a regression of that size.
func reportSpread(out io.Writer, sets [][]*runResult) error {
	var exceeded []string
	fmt.Fprintf(out, "\nspread over %d sets\n%-22s %-22s %12s %12s %12s %8s %8s %8s\n", len(sets), "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for i, first := range sets[0] {
		for _, d := range defsFor(first.Traced) {
			v := make([]float64, len(sets))
			for s := range sets {
				v[s] = sets[s][i].Metrics[d.Name]
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			med := median(v)
			q1, q3 := quartiles(v)
			rng := 0.0
			if med != 0 {
				rng = (sorted[len(sorted)-1] - sorted[0]) / med
			}
			line := fmt.Sprintf("%-22s %-22s %12.4f %12.4f %12.4f %8.4f %8.4f", first.Workload, d.Name, med, q1, q3, spread(v), rng)
			if d.Bound > 0 {
				line += fmt.Sprintf(" %8.4f", d.Bound)
				if spread(v) > d.Bound {
					line += " EXCEEDS"
					exceeded = append(exceeded, first.Workload+"/"+d.Name)
				}
			}
			fmt.Fprintln(out, line)
		}
	}
	if len(exceeded) > 0 {
		return fmt.Errorf("run-to-run spread exceeds the bound on %s", strings.Join(exceeded, ", "))
	}
	return nil
}

// stampEnv describes the machine and build a result was taken on; it
// heads every output so numbers are never compared across unlike boxes
// unknowingly.
func stampEnv(seed int64, conns int) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if b, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("env: go=%s os=%s arch=%s cpu=%q nproc=%d gomaxprocs=%d P=%d commit=%s seed=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), conns, commit, seed)
}
