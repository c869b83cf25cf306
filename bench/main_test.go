package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when the
// traced pass re-executes itself as the single-CPU engine child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := engineChildMain(spec, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench engine child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}
