package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestCustomModelOutput runs exactly what `go run ./examples/custom_model`
// runs and pins every line: the hand-built stack's summary, the
// cosine-annealed training curve and DR/ACC/FAR.
func TestCustomModelOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Lines(t, out.String(), []string{
		"custom wide-residual architecture:",
		"  0  PreShortcut                              params=147136",
		"  1  PreShortcut                              params=147136",
		"  2  PreShortcut                              params=147136",
		"  3  PreShortcut                              params=147136",
		"  4  PreShortcut                              params=147136",
		"  5  GlobalAvgPool1D                          params=0",
		"  6  Dense(121→5)                             params=610",
		"total params: 736290",
		"  epoch 1: train_loss=2.6068 test_loss=1.0475 test_acc=0.6766",
		"  epoch 2: train_loss=0.4168 test_loss=0.6759 test_acc=0.8218",
		"  epoch 3: train_loss=0.1104 test_loss=0.5315 test_acc=0.8680",
		"  epoch 4: train_loss=0.0846 test_loss=0.5035 test_acc=0.8812",
		"DR=92.16%  ACC=94.39%  FAR=3.33%",
	})
}
