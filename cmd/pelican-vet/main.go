// Command pelican-vet runs the project-specific static analyzers over the
// module: noalloc (hot-path allocation contract), lockscope (no blocking
// under a serving-plane mutex), ctxflow (context threading and goroutine
// discipline) and unused (no exported internal/ name without a caller,
// no serving Config field without a setter). It is stdlib-only, like
// everything else in the module. The pelican_* metric contract is checked
// on what /metrics serves, by serve's TestMetricsExpositionFormat.
//
// Usage:
//
//	pelican-vet [flags] [packages]
//
//	pelican-vet ./...                      # whole module (the CI gate)
//	pelican-vet -json -unused=false ./internal/serve  # machine-readable; unused needs the whole module
//	pelican-vet -noalloc=false ./...       # disable one analyzer
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
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

	if *jsonOut {
		out := struct {
			Findings []analysis.Diagnostic `json:"findings"`
		}{Findings: diags}
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
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
