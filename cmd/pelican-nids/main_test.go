package main

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/golden"
)

// throughput matches the one line a run may print differently.
var throughput = regexp.MustCompile(`throughput: \d+ flows/s`)

// TestNIDSDetectors pins the three detector generations the paper's §VI
// compares, each over the same seed and the same 2000-flow stream: a
// signature engine is precise but blind to variants, a Gaussian profile
// alarms broadly, and a supervised model balances DR against FAR. The
// first alerts are not shown because two workers deliver them in no fixed
// order; the counters and the incident count printed identically in 20
// runs at two workers.
func TestNIDSDetectors(t *testing.T) {
	for _, tc := range []struct {
		detector string
		want     []string
	}{
		{"signature", []string{
			`building "signature" detector from 1500 training records...`,
			"mined 3 signatures",
			"streaming 2000 flows through signature (2 workers)...",
			"processed=2000 alerts=119 DR=69.19% FAR=0.00%",
			"incidents: 119 (1.0 alerts folded into each)",
			"throughput: N flows/s",
		}},
		{"anomaly", []string{
			`building "anomaly" detector from 1500 training records...`,
			"profiled 737 normal flows (threshold 6.269)",
			"streaming 2000 flows through gaussian-profile (2 workers)...",
			"processed=2000 alerts=225 DR=81.40% FAR=4.65%",
			"incidents: 225 (1.0 alerts folded into each)",
			"throughput: N flows/s",
		}},
		{"lunet", []string{
			`building "lunet" detector from 1500 training records...`,
			"streaming 2000 flows through lunet (2 workers)...",
			"processed=2000 alerts=185 DR=99.42% FAR=0.77%",
			"incidents: 185 (1.0 alerts folded into each)",
			"throughput: N flows/s",
		}},
	} {
		t.Run(tc.detector, func(t *testing.T) {
			if testing.Short() && tc.detector == "lunet" {
				t.Skip("training test")
			}
			var out bytes.Buffer
			err := run([]string{
				"-detector", tc.detector, "-dataset", "nsl-kdd", "-seed", "1",
				"-train", "1500", "-epochs", "3", "-flows", "2000", "-workers", "2", "-show-alerts", "0",
			}, &out)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			golden.Lines(t, throughput.ReplaceAllString(out.String(), "throughput: N flows/s"), tc.want)
		})
	}
}

func TestNIDSRejectsUnknownDetector(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-detector", "quantum"}, &out); err == nil {
		t.Fatal("unknown detector accepted")
	}
}
