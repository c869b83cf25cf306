package unused

import "testing"

func TestOwnTestsAreNotCallers(t *testing.T) {
	var f Fixture
	f.Reset()
	cfg := ServeConfig{Knob: 2}
	if TestOnly() > Threshold || (Square{Side: 1}).Diagonal() < 0 || cfg.Knob == 0 {
		t.Fatal("unreachable")
	}
}
