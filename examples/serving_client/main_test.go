package main

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/golden"
)

// listenAddr matches the one thing a run may print differently: the
// ephemeral port the server listens on.
var listenAddr = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// TestServingClientOutput runs exactly what `go run
// ./examples/serving_client` runs and pins every line: both generations'
// content-addressed versions, the live verdicts, the shadow's agreement
// counters over all 256 mirrored records, and the promote / rollback
// versions.
func TestServingClientOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Lines(t, listenAddr.ReplaceAllString(out.String(), "127.0.0.1:PORT"), []string{
		"training two mlp generations...",
		"serving mlp version 5a31587cfcdc at http://127.0.0.1:PORT (live slot)",
		"  flow 0: class=0  attack=false score=3.58 (truth: normal)",
		"  flow 1: class=1  attack=true  score=13.18 (truth: dos)",
		"  flow 2: class=0  attack=false score=10.75 (truth: normal)",
		"  flow 3: class=1  attack=true  score=16.38 (truth: dos)",
		"  flow 4: class=0  attack=false score=12.17 (truth: normal)",
		"  flow 5: class=0  attack=false score=10.72 (truth: normal)",
		"  flow 6: class=0  attack=false score=6.36 (truth: normal)",
		"  flow 7: class=0  attack=false score=9.24 (truth: normal)",
		"staged 31f8e52e86d2 into the shadow slot (live stays 5a31587cfcdc)",
		"shadow evaluation: 256 mirrored, 240 agree, 16 disagree (0 dropped)",
		"promoted: now serving version 31f8e52e86d2 (was 5a31587cfcdc, retained for rollback)",
		"rolled back: serving version 5a31587cfcdc again",
		"clean shutdown",
	})
}
