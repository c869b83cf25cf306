package models

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func rngs() (*rand.Rand, *rand.Rand) {
	return rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
}

func smallCfg() BlockConfig {
	return BlockConfig{Features: 8, Kernel: 3, Pool: 2, Dropout: 0.5}
}

func TestParamLayerArithmetic(t *testing.T) {
	if got := ParamLayersForBlocks(5); got != 21 {
		t.Fatalf("5 blocks → %d parameter layers, want 21", got)
	}
	if got := ParamLayersForBlocks(10); got != 41 {
		t.Fatalf("10 blocks → %d parameter layers, want 41", got)
	}
	if got := BlocksForParamLayers(21); got != 5 {
		t.Fatalf("21 layers → %d blocks, want 5", got)
	}
	if got := BlocksForParamLayers(41); got != 10 {
		t.Fatalf("41 layers → %d blocks, want 10", got)
	}
}

func TestAllModelsForwardShape(t *testing.T) {
	const classes = 5
	cfg := smallCfg()
	x := tensor.RandNormal(rand.New(rand.NewSource(3)), 0, 1, 4, 1, cfg.Features)
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		rng, dropRNG := rngs()
		stack := spec.Build(rng, dropRNG, cfg, cfg.Features, classes)
		out := stack.Forward(x, false)
		if out.Rank() != 2 || out.Dim(0) != 4 || out.Dim(1) != classes {
			t.Errorf("%s: output shape %v, want [4 %d]", name, out.Shape(), classes)
		}
	}
}

func TestAllModelsTrainOneStep(t *testing.T) {
	// Every registered model must run a full train step without panicking
	// and produce finite loss and parameters.
	const classes = 3
	cfg := smallCfg()
	x := tensor.RandNormal(rand.New(rand.NewSource(4)), 0, 1, 6, 1, cfg.Features)
	y := []int{0, 1, 2, 0, 1, 2}
	for _, name := range Names() {
		spec, _ := Lookup(name)
		rng, dropRNG := rngs()
		stack := spec.Build(rng, dropRNG, cfg, cfg.Features, classes)
		net := nn.NewNetwork(stack, nn.NewSoftmaxCrossEntropy(), nn.NewRMSprop(0.01))
		loss := net.TrainBatch(x, y)
		if loss <= 0 || loss != loss {
			t.Errorf("%s: bad loss %v", name, loss)
		}
		for _, p := range stack.Params() {
			if !p.Value.AllFinite() {
				t.Errorf("%s: non-finite parameter %s after one step", name, p.Name)
			}
		}
	}
}

func TestResidualBlockPreservesShape(t *testing.T) {
	rng, dropRNG := rngs()
	cfg := smallCfg()
	blk := NewResidualBlock(rng, dropRNG, cfg)
	x := tensor.RandNormal(rng, 0, 1, 3, 1, cfg.Features)
	out := blk.Forward(x, true)
	if !sameShape(out.Shape(), []int{3, 1, cfg.Features}) {
		t.Fatalf("ResBlk output shape %v, want [3 1 %d]", out.Shape(), cfg.Features)
	}
}

func TestPlainBlockPreservesShapeAtT1(t *testing.T) {
	rng, dropRNG := rngs()
	cfg := smallCfg()
	blk := NewPlainBlock(rng, dropRNG, cfg)
	x := tensor.RandNormal(rng, 0, 1, 3, 1, cfg.Features)
	out := blk.Forward(x, true)
	if !sameShape(out.Shape(), []int{3, 1, cfg.Features}) {
		t.Fatalf("plain block output shape %v, want [3 1 %d]", out.Shape(), cfg.Features)
	}
}

func TestBlockNetDepths(t *testing.T) {
	rng, dropRNG := rngs()
	cfg := smallCfg()
	p21 := BuildPlain21(rng, dropRNG, cfg, 5)
	// 5 blocks + GAP + Dense = 7 top-level layers.
	if got := len(p21.Layers()); got != 7 {
		t.Fatalf("Plain-21 has %d top-level layers, want 7", got)
	}
	pel := BuildPelican(rng, dropRNG, cfg, 5)
	if got := len(pel.Layers()); got != 12 {
		t.Fatalf("Pelican has %d top-level layers, want 12", got)
	}
}

func TestResidualNetHasSameParamCountAsPlain(t *testing.T) {
	// The shortcut adds no parameters: Residual-21 and Plain-21 must have
	// identical parameter counts (the paper's comparison is depth-matched).
	cfg := smallCfg()
	r1, d1 := rngs()
	plain := BuildPlain21(r1, d1, cfg, 5)
	r2, d2 := rngs()
	res := BuildResidual21(r2, d2, cfg, 5)
	if pc, rc := nn.ParamCount(plain.Params()), nn.ParamCount(res.Params()); pc != rc {
		t.Fatalf("param counts differ: plain=%d residual=%d", pc, rc)
	}
}

func TestPelicanGradientFlowsToFirstBlock(t *testing.T) {
	// Residual learning's whole point (§III): gradient reaching the first
	// block must be healthy in the deep residual net.
	cfg := BlockConfig{Features: 6, Kernel: 3, Pool: 2, Dropout: 0}
	rng, dropRNG := rngs()
	stack := BuildPelican(rng, dropRNG, cfg, 3)
	x := tensor.RandNormal(rng, 0, 1, 8, 1, cfg.Features)
	y := []int{0, 1, 2, 0, 1, 2, 0, 1}
	loss := nn.NewSoftmaxCrossEntropy()
	out := stack.Forward(x, true)
	loss.Forward(out, y)
	stack.Backward(loss.Backward())
	// First block, first parameter (BN gamma of block 0).
	first := stack.Params()[0]
	if first.Grad.MaxAbs() == 0 {
		t.Fatal("no gradient reached the first block of Pelican")
	}
	if !first.Grad.AllFinite() {
		t.Fatal("non-finite gradient in first block")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("alexnet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"cnn", "hast-ids", "lstm", "lunet", "mlp", "pelican", "plain-21", "plain-41", "residual-21"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BlocksForParamLayers inverts ParamLayersForBlocks (rounding down).
func BlocksForParamLayers(layers int) int { return (layers - 1) / 4 }
