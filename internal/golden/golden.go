// Package golden pins what a program prints: a test runs the program into
// a buffer, masks what legitimately varies (a listen address, a rate), and
// compares the rest with literal expected lines.
package golden

import (
	"runtime"
	"strings"
	"testing"
)

// Lines fails t unless got, split into lines, equals want line for line.
// The trained numbers in a golden are exact only where the compiler
// rounds x*y+z twice: amd64 does, but arm64 may fuse it into one
// rounding. Elsewhere only the line count is checked, which still
// catches a program that stops early or prints a section twice.
func Lines(t testing.TB, got string, want []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if runtime.GOARCH != "amd64" {
		if len(lines) != len(want) {
			t.Fatalf("printed %d lines, want %d:\n%s", len(lines), len(want), got)
		}
		return
	}
	for i := 0; i < len(lines) || i < len(want); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
