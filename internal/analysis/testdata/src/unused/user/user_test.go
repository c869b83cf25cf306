package user

import (
	"testing"

	"vet.test/unused"
)

func TestAnotherPackagesTestIsACaller(t *testing.T) {
	cfg := unused.ServeConfig{Knob: 1} // a test setting a knob is not a binary setting it
	if unused.CrossTested() != 3 || cfg.Knob != 1 {
		t.Fatal("unreachable")
	}
}
