package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTable1Smoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1", "-profile", "smoke"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "TABLE I") {
		t.Fatalf("missing Table I:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "smoke profile") {
		t.Fatalf("missing profile footer:\n%s", out.String())
	}
}

func TestRunTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "table3", "-profile", "smoke"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"TABLE III", "Plain-21", "Residual-41 (Pelican)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q:\n%s", want, s)
		}
	}
}

func TestRunFig5aSmokeIncludesChart(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig5a", "-profile", "smoke"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5") || !strings.Contains(s, "epochs →") {
		t.Fatalf("missing chart:\n%s", s)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table9"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsUnknownProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1", "-profile", "huge"}, &out); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestOverridesApplied(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "table1", "-profile", "smoke", "-records", "123", "-epochs", "7"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "123") {
		t.Fatalf("records override not reflected:\n%s", s)
	}
	if !strings.Contains(s, "7") {
		t.Fatalf("epochs override not reflected:\n%s", s)
	}
}
