// Package experiments reproduces every table and figure of the paper's
// evaluation (§V): Fig. 2 (depth-degradation sweep), Fig. 5 (loss curves),
// Table II (TP/FP), Tables III/IV (DR/ACC/FAR for the four networks) and
// Table V (the comparative study), plus Table Vx (three more classical
// baselines, table5x.go) and the studies behind the paper's §IV and §VI
// arguments: anomaly detection vs supervised, signatures vs attack
// variants, shortcut placement (extensions.go) and detector behaviour
// under traffic drift (drift.go). It imports only the paper's layers,
// never the serving stack.
//
// Experiments run under a Profile that scales the workload: "paper"
// replicates Table I exactly (full record counts, 50/100 epochs — hours of
// CPU time in pure Go), "default" is the scaled profile `pelican-bench`
// runs unless told otherwise (its output is the record; no results file is
// checked in), and "smoke" is a tiny shape used by unit tests.
package experiments

import (
	"fmt"

	"repro/internal/synth"
)

// Profile scales an experiment's workload without changing its structure.
type Profile struct {
	Name string
	// Records drawn per dataset (0 = the paper's full counts).
	Records int
	// EpochsUNSW / EpochsNSL cap training epochs (0 = Table I: 100 / 50).
	EpochsUNSW int
	EpochsNSL  int
	// Batch is the minibatch size (paper: 4000).
	Batch int
	// LR is the RMSprop learning rate (paper: 0.01).
	LR float64
	// Folds >= 2 runs k-fold cross-validation (paper: 10); Folds == 1 uses
	// a single stratified split with TestFrac held out.
	Folds    int
	TestFrac float64
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Tiny switches to miniature dataset shapes (fewer features/classes)
	// so unit tests and benchmarks finish in seconds.
	Tiny bool
	// GradClip caps the global gradient norm; 0 disables. The scaled
	// profiles clip at 5 to keep small-batch RMSprop stable (the paper's
	// batch of 4000 smooths gradients instead).
	GradClip float64
}

// PaperProfile replicates the paper's Table I settings exactly.
func PaperProfile() Profile {
	return Profile{
		Name:  "paper",
		Batch: 4000, LR: 0.01,
		Folds: 10,
		Seed:  1,
	}
}

// DefaultProfile is the scaled profile used for the recorded results:
// same architectures and optimizer, smaller sample counts and epochs so
// the full suite completes on a CPU in tens of minutes.
func DefaultProfile() Profile {
	// The learning rate is square-root-scaled from the paper's Table I
	// (0.01 at batch 4000 → 0.0025 at batch 256): small-batch RMSprop at
	// the paper's raw rate destabilizes the 41-layer networks.
	return Profile{
		Name:       "default",
		Records:    6000,
		EpochsUNSW: 14, EpochsNSL: 10,
		Batch: 256, LR: 0.0025,
		Folds: 1, TestFrac: 0.2,
		Seed:     1,
		GradClip: 5,
	}
}

// SmokeProfile is the miniature profile for tests.
func SmokeProfile() Profile {
	return Profile{
		Name:       "smoke",
		Records:    360,
		EpochsUNSW: 2, EpochsNSL: 2,
		Batch: 64, LR: 0.01,
		Folds: 1, TestFrac: 0.25,
		Seed:     1,
		Tiny:     true,
		GradClip: 5,
	}
}

// ProfileByName resolves "paper", "default" or "smoke".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "paper":
		return PaperProfile(), nil
	case "default", "":
		return DefaultProfile(), nil
	case "smoke":
		return SmokeProfile(), nil
	}
	return Profile{}, fmt.Errorf("experiments: unknown profile %q (want paper, default or smoke)", name)
}

// DatasetID names one of the two evaluated datasets.
type DatasetID string

const (
	// UNSW is the UNSW-NB15-shaped dataset.
	UNSW DatasetID = "unsw-nb15"
	// NSL is the NSL-KDD-shaped dataset.
	NSL DatasetID = "nsl-kdd"
)

// tinyNSLConfig is an NSL-shaped miniature: same generative structure,
// ~26 encoded features, boosted rare-class weights so every class appears
// in small draws.
func tinyNSLConfig() synth.Config {
	cfg := synth.NSLKDDConfig()
	cfg.Name = "nsl-kdd-tiny"
	cfg.NumericName = cfg.NumericName[:10]
	cfg.Cats = []synth.CatSpec{
		{Name: "protocol_type", Card: 3},
		{Name: "service", Card: 8},
		{Name: "flag", Card: 5},
	}
	cfg.Classes = []synth.ClassSpec{
		{Name: "normal", Weight: 0.45},
		{Name: "dos", Weight: 0.30},
		{Name: "probe", Weight: 0.12},
		{Name: "r2l", Weight: 0.08},
		{Name: "u2r", Weight: 0.05},
	}
	cfg.LatentDim = 8
	cfg.QuadTerms = 6
	return cfg
}

// tinyUNSWConfig is a UNSW-shaped miniature (~31 encoded features).
func tinyUNSWConfig() synth.Config {
	cfg := synth.UNSWNB15Config()
	cfg.Name = "unsw-nb15-tiny"
	cfg.NumericName = cfg.NumericName[:12]
	cfg.Cats = []synth.CatSpec{
		{Name: "proto", Card: 10},
		{Name: "service", Card: 5},
		{Name: "state", Card: 4},
	}
	cfg.Classes = []synth.ClassSpec{
		{Name: "normal", Weight: 0.40},
		{Name: "generic", Weight: 0.20},
		{Name: "exploits", Weight: 0.15},
		{Name: "fuzzers", Weight: 0.10},
		{Name: "dos", Weight: 0.08},
		{Name: "reconnaissance", Weight: 0.07},
	}
	cfg.LatentDim = 10
	cfg.QuadTerms = 8
	return cfg
}

// DatasetConfig returns the synth config, record count and epoch budget for
// a dataset under this profile.
func (p Profile) DatasetConfig(id DatasetID) (synth.Config, int, int, error) {
	var cfg synth.Config
	var epochs int
	switch id {
	case UNSW:
		if p.Tiny {
			cfg = tinyUNSWConfig()
		} else {
			cfg = synth.UNSWNB15Config()
		}
		epochs = p.EpochsUNSW
		if epochs == 0 {
			epochs = 100 // Table I
		}
	case NSL:
		if p.Tiny {
			cfg = tinyNSLConfig()
		} else {
			cfg = synth.NSLKDDConfig()
		}
		epochs = p.EpochsNSL
		if epochs == 0 {
			epochs = 50 // Table I
		}
	default:
		return synth.Config{}, 0, 0, fmt.Errorf("experiments: unknown dataset %q", id)
	}
	records := p.Records
	if records == 0 {
		n, err := synth.PaperRecordCount(cfg.Name)
		if err != nil {
			// Tiny configs have no paper count; fall back to a small draw.
			n = 2000
		}
		records = n
	}
	return cfg, records, epochs, nil
}
