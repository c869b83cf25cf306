package unused_test

import (
	"testing"

	"vet.test/unused"
	"vet.test/user"
)

// TestExternalSeesTestBuild uses a name only export_test.go declares, and
// passes the test build's ServeConfig to package user, which imports
// unused: both resolve only against the package as go test builds it.
func TestExternalSeesTestBuild(t *testing.T) {
	if unused.Doubled(2) != unused.ExternalTestOnly() || user.Replicas(unused.ServeConfig{Replicas: 1}) != 1 {
		t.Fatal("unreachable")
	}
}
