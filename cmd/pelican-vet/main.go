// Command pelican-vet runs the project-specific static analyzers over the
// module: noalloc (hot-path allocation contract), lockscope (no blocking
// under a serving-plane mutex), ctxflow (context threading and goroutine
// discipline), metricreg (pelican_* metric registry hygiene), and unused
// (no exported internal/ name without a caller, no serving Config field
// without a setter). It is stdlib-only, like everything else in the
// module.
//
// Usage:
//
//	pelican-vet [flags] [packages]
//
//	pelican-vet ./...                      # whole module (the CI gate)
//	pelican-vet -json -unused=false ./internal/serve  # machine-readable; unused needs the whole module
//	pelican-vet -noalloc=false ./...       # disable one analyzer
//	pelican-vet -metrics-doc SERVING.md ./...  # also fail on catalog drift
//
// Exit status: 0 clean, 1 findings or doc drift, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pelican-vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	metricsDoc := fs.String("metrics-doc", "", "cross-check declared metrics against this catalog file (SERVING.md)")
	enabled := map[string]*bool{}
	all := analysis.All()
	for _, a := range all {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pelican-vet:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pelican-vet:", err)
		return 2
	}

	var active []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	diags := analysis.Run(pkgs, active)

	var drift []string
	if *metricsDoc != "" {
		declared := analysis.CollectMetrics(pkgs)
		drift, err = analysis.CheckMetricsDoc(*metricsDoc, declared)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pelican-vet:", err)
			return 2
		}
	}

	if *jsonOut {
		out := struct {
			Findings []analysis.Diagnostic `json:"findings"`
			DocDrift []string              `json:"doc_drift,omitempty"`
		}{Findings: diags, DocDrift: drift}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "pelican-vet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
		for _, m := range drift {
			fmt.Println("metrics-doc:", m)
		}
	}
	if len(diags) > 0 || len(drift) > 0 {
		return 1
	}
	return 0
}
