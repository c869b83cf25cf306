package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestQuickstartOutput runs exactly what `go run ./examples/quickstart`
// runs and pins every line: the registry's parameter counts, the training
// curve, DR/ACC/FAR, the per-class table and the artifact's
// content-addressed version.
func TestQuickstartOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Lines(t, out.String(), []string{
		"registered designs at 32 features, 5 classes:",
		"  cnn            31557 params  2-stage Conv1D baseline",
		"  hast-ids      123017 params  HAST-IDS: tandem CNN→LSTM baseline",
		"  lstm           83077 params  single-layer LSTM baseline",
		"  lunet          50085 params  LuNet: 3 plain CNN+GRU blocks + GAP + dense",
		"  mlp            41989 params  2-hidden-layer perceptron baseline",
		"  pelican       166565 params  Residual-41: 10 residual blocks + GAP + dense — the paper's design",
		"  plain-21       83365 params  5 plain CNN+GRU blocks + GAP + dense (21 parameter layers)",
		"  plain-41      166565 params  10 plain CNN+GRU blocks + GAP + dense (41 parameter layers)",
		"  residual-21    83365 params  5 residual blocks + GAP + dense (21 parameter layers)",
		"training Residual-21 (1176730 parameters) on 1198 records...",
		"  epoch 1: train_loss=0.7775 test_acc=0.6854",
		"  epoch 2: train_loss=0.1563 test_acc=0.9470",
		"  epoch 3: train_loss=0.0631 test_acc=0.9603",
		"DR=100.00%  ACC=97.35%  FAR=5.10%",
		"  normal   recall=0.949 precision=1.000 n=157",
		"  dos      recall=1.000 precision=0.981 n=104",
		"  probe    recall=1.000 precision=0.757 n=28",
		"  r2l      recall=0.818 precision=0.900 n=11",
		"  u2r      recall=0.000 precision=0.000 n=2",
		"artifact 2acbe30aa0a5: 9439708 bytes; loaded predictions match the trained model bit for bit",
	})
}
