package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

func TestTrainMLPQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	var out bytes.Buffer
	err := run([]string{
		"-model", "mlp", "-dataset", "nsl-kdd",
		"-records", "600", "-epochs", "3", "-batch", "128",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"model mlp", "trained in", "DR=", "ACC=", "FAR="} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestTrainSavesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	path := filepath.Join(t.TempDir(), "m.plcn")
	var out bytes.Buffer
	err := run([]string{
		"-model", "cnn", "-dataset", "nsl-kdd",
		"-records", "400", "-epochs", "2", "-batch", "128",
		"-save", path,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "model artifact written") {
		t.Fatalf("no artifact confirmation:\n%s", out.String())
	}
	// The saved file must load back into a ready-to-score detector.
	a, err := serve.LoadArtifactFile(path)
	if err != nil {
		t.Fatalf("load artifact: %v", err)
	}
	if a.ModelName != "cnn" {
		t.Fatalf("artifact model %q, want cnn", a.ModelName)
	}
	if _, err := a.NewInferDetector(); err != nil {
		t.Fatalf("rebuild detector: %v", err)
	}
}

func TestTrainRejectsUnknownModel(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-model", "transformer"}, &out); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTrainRejectsUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dataset", "cicids"}, &out); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
