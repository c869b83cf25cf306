// Package user is unused's other package: what its production code sets
// counts as a Config setter, what its test calls counts as a caller.
package user

import "vet.test/unused"

func init() {
	cfg := unused.ServeConfig{Replicas: 2}
	cfg.Assigned = 3
	bind(&cfg.Flagged)
}

func bind(*int) {}

// Replicas reads a Config its caller builds; unused's external test calls
// it.
func Replicas(c unused.ServeConfig) int { return c.Replicas }
