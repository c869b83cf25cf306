// Command pelican-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pelican-bench -exp table5 -profile default
//	pelican-bench -exp fig5a -profile smoke -v
//	pelican-bench -exp all
//
// Experiments: table1, table2, table3, table4, table5, table5x, fig2,
// fig5a, fig5b, fig5c, fig5d, the §IV and §VI studies ext-anomaly,
// ext-signature, ext-drift and ext-ablation, and all (the paper's tables
// and figures). Profiles: paper, default, smoke (defined in
// internal/experiments/profile.go). Serving performance is measured by
// the ledger, not here: go run ./bench (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pelican-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pelican-bench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment id: table1..table5, table5x, fig2, fig5a..fig5d, ext-anomaly, ext-signature, ext-drift, ext-ablation, all")
		profile    = fs.String("profile", "default", "workload profile: paper, default, smoke")
		records    = fs.Int("records", 0, "override records per dataset (0 = profile default)")
		epochs     = fs.Int("epochs", 0, "override training epochs (0 = profile default)")
		seed       = fs.Int64("seed", 0, "override random seed (0 = profile default)")
		verbose    = fs.Bool("v", false, "log per-epoch training progress to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("create mem profile: %w", err)
		}
		defer func() {
			runtime.GC() // flush dead objects so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pelican-bench: write mem profile:", err)
			}
			f.Close()
		}()
	}
	p, err := experiments.ProfileByName(*profile)
	if err != nil {
		return err
	}
	if *records > 0 {
		p.Records = *records
	}
	if *epochs > 0 {
		p.EpochsUNSW = *epochs
		p.EpochsNSL = *epochs
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	var log io.Writer
	if *verbose {
		log = os.Stderr
	}

	start := time.Now()
	if err := dispatch(*exp, p, out, log); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n[%s profile, %s elapsed]\n", p.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

// dispatch runs the selected experiment(s), reusing the four-network runs
// across Table II/III/IV and Fig. 5 panels as the paper does.
func dispatch(exp string, p experiments.Profile, out, log io.Writer) error {
	needsFour := map[string]bool{
		"table2": true, "table3": true, "table4": true,
		"fig5a": true, "fig5b": true, "fig5c": true, "fig5d": true, "all": true,
	}
	var nsl, unsw *experiments.FourNetResult
	var err error
	if needsFour[exp] {
		needNSL := exp == "all" || exp == "table2" || exp == "table3" || exp == "fig5c" || exp == "fig5d"
		needUNSW := exp == "all" || exp == "table2" || exp == "table4" || exp == "fig5a" || exp == "fig5b"
		if needNSL {
			if nsl, err = experiments.RunFourNets(p, experiments.NSL, log); err != nil {
				return err
			}
		}
		if needUNSW {
			if unsw, err = experiments.RunFourNets(p, experiments.UNSW, log); err != nil {
				return err
			}
		}
	}

	switch exp {
	case "table1":
		fmt.Fprint(out, experiments.FormatTable1(p))
	case "table2":
		fmt.Fprint(out, experiments.FormatTable2(nsl, unsw))
	case "table3":
		fmt.Fprint(out, experiments.FormatTable34(nsl))
	case "table4":
		fmt.Fprint(out, experiments.FormatTable34(unsw))
	case "table5x":
		res, err := experiments.RunTable5Extended(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatTable5Extended(res))
	case "table5":
		res, err := experiments.RunTable5(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatTable5(res))
	case "fig2":
		res, err := experiments.RunFig2(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatFig2(res))
		fmt.Fprint(out, experiments.ChartFig2(res))
		if onset := experiments.DegradationOnset(res.Points); onset > 0 {
			fmt.Fprintf(out, "degradation begins after %d parameter layers\n", onset)
		}
	case "fig5a":
		fmt.Fprint(out, experiments.FormatFig5(unsw, "train"))
		fmt.Fprint(out, experiments.ChartFig5(unsw, "train"))
	case "fig5b":
		fmt.Fprint(out, experiments.FormatFig5(unsw, "test"))
		fmt.Fprint(out, experiments.ChartFig5(unsw, "test"))
	case "fig5c":
		fmt.Fprint(out, experiments.FormatFig5(nsl, "train"))
		fmt.Fprint(out, experiments.ChartFig5(nsl, "train"))
	case "fig5d":
		fmt.Fprint(out, experiments.FormatFig5(nsl, "test"))
		fmt.Fprint(out, experiments.ChartFig5(nsl, "test"))
	case "ext-anomaly":
		rows, err := experiments.RunAnomalyComparison(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, metrics.FormatTable("EXT: ANOMALY DETECTION vs SUPERVISED (NSL-KDD, paper §VI)", rows))
	case "ext-signature":
		rows, err := experiments.RunSignatureStudy(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, metrics.FormatTable("EXT: SIGNATURE ENGINE vs KNOWN ATTACKS AND VARIANTS (paper §VI)", rows))
	case "ext-drift":
		res, err := experiments.RunDriftStudy(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatDrift(res))
	case "ext-ablation":
		rows, err := experiments.RunAblation(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, metrics.FormatTable("EXT: RESBLK ABLATION AT DEPTH 10 (UNSW-NB15)", rows))
	case "all":
		fmt.Fprint(out, experiments.FormatTable1(p))
		fmt.Fprintln(out)
		fig2, err := experiments.RunFig2(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatFig2(fig2))
		fmt.Fprint(out, experiments.ChartFig2(fig2))
		if onset := experiments.DegradationOnset(fig2.Points); onset > 0 {
			fmt.Fprintf(out, "degradation begins after %d parameter layers\n", onset)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatFig5(unsw, "train"))
		fmt.Fprint(out, experiments.ChartFig5(unsw, "train"))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatFig5(unsw, "test"))
		fmt.Fprint(out, experiments.ChartFig5(unsw, "test"))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatFig5(nsl, "train"))
		fmt.Fprint(out, experiments.ChartFig5(nsl, "train"))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatFig5(nsl, "test"))
		fmt.Fprint(out, experiments.ChartFig5(nsl, "test"))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatTable2(nsl, unsw))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatTable34(nsl))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatTable34(unsw))
		fmt.Fprintln(out)
		t5, err := experiments.RunTable5(p, log)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.FormatTable5(t5))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
