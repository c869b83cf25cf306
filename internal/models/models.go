// Package models builds every network evaluated in the paper: the plain
// and residual CNN+GRU block networks of §IV/§V-C (Plain-21/41,
// Residual-21/41 — Residual-41 being Pelican), LuNet, and the deep-learning
// baselines of §V-H (MLP, CNN, LSTM, HAST-IDS).
//
// Every model consumes rank-3 input (batch, 1, F): one timestep with F
// channels, exactly the paper's input shape (§V-C: "(1, 196)" and
// "(1, 121)"). Models whose first layer is dense start with a Flatten.
package models

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
)

// BlockConfig parameterizes one CNN+GRU block (paper Table I).
type BlockConfig struct {
	// Features is F: the conv filter count and GRU unit count, which must
	// equal the input width so residual adds are shape-compatible (§V-C).
	Features int
	// Kernel is the conv kernel size (paper: 10).
	Kernel int
	// Pool is the max-pool window (identity when the sequence length is 1).
	Pool int
	// Dropout is the block's dropout rate (paper: 0.6).
	Dropout float64
}

// PaperBlockConfig returns the paper's Table I block setting for a dataset
// with the given encoded feature count.
func PaperBlockConfig(features int) BlockConfig {
	return BlockConfig{Features: features, Kernel: 10, Pool: 2, Dropout: 0.6}
}

// NewPlainBlock builds the plain block of Fig. 4(a):
// BN → Conv1D+ReLU → MaxPool → BN → GRU(tanh, hard-sigmoid) → Reshape →
// Dropout. rng initializes weights; dropRNG drives dropout masks.
func NewPlainBlock(rng, dropRNG *rand.Rand, cfg BlockConfig) nn.Layer {
	f := cfg.Features
	return nn.NewSequential(
		nn.NewBatchNorm(f),
		nn.NewConv1D(rng, f, f, cfg.Kernel, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewMaxPool1D(cfg.Pool),
		nn.NewBatchNorm(f),
		nn.NewGRU(rng, f, f, true),
		nn.NewReshape(-1, f),
		nn.NewDropout(dropRNG, cfg.Dropout),
	)
}

// NewResidualBlock builds the ResBlk of Fig. 4(b): the same stack with a
// shortcut from the first BatchNorm's output to the block output
// ("the short cut is connected from the BN output", §IV).
func NewResidualBlock(rng, dropRNG *rand.Rand, cfg BlockConfig) nn.Layer {
	f := cfg.Features
	body := nn.NewSequential(
		nn.NewConv1D(rng, f, f, cfg.Kernel, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewMaxPool1D(cfg.Pool),
		nn.NewBatchNorm(f),
		nn.NewGRU(rng, f, f, true),
		nn.NewReshape(-1, f),
		nn.NewDropout(dropRNG, cfg.Dropout),
	)
	return nn.NewPreShortcut(nn.NewBatchNorm(f), body)
}

// ParamLayersForBlocks converts a block count to the paper's
// "parameter layer" count: each block contributes 4 parameter layers (BN,
// Conv, BN, GRU) and the classification head contributes one Dense.
// 5 blocks → 21, 10 blocks → 41, matching §V-C.
func ParamLayersForBlocks(blocks int) int { return 4*blocks + 1 }

// BuildBlockNet assembles blocks + GlobalAvgPool + Dense(classes), the
// paper's network skeleton. residual selects ResBlk vs plain blocks.
func BuildBlockNet(rng, dropRNG *rand.Rand, blocks int, residual bool, cfg BlockConfig, classes int) *nn.Sequential {
	if blocks < 1 {
		panic(fmt.Sprintf("models: block count %d < 1", blocks))
	}
	s := nn.NewSequential()
	for i := 0; i < blocks; i++ {
		if residual {
			s.Add(NewResidualBlock(rng, dropRNG, cfg))
		} else {
			s.Add(NewPlainBlock(rng, dropRNG, cfg))
		}
	}
	s.Add(nn.NewGlobalAvgPool1D())
	s.Add(nn.NewDense(rng, cfg.Features, classes))
	return s
}

// BuildPlain21 is the 21-parameter-layer plain network (5 plain blocks).
func BuildPlain21(rng, dropRNG *rand.Rand, cfg BlockConfig, classes int) *nn.Sequential {
	return BuildBlockNet(rng, dropRNG, 5, false, cfg, classes)
}

// BuildPlain41 is the 41-parameter-layer plain network (10 plain blocks).
func BuildPlain41(rng, dropRNG *rand.Rand, cfg BlockConfig, classes int) *nn.Sequential {
	return BuildBlockNet(rng, dropRNG, 10, false, cfg, classes)
}

// BuildResidual21 is the 21-parameter-layer residual network (5 ResBlks).
func BuildResidual21(rng, dropRNG *rand.Rand, cfg BlockConfig, classes int) *nn.Sequential {
	return BuildBlockNet(rng, dropRNG, 5, true, cfg, classes)
}

// BuildPelican is Residual-41: 10 ResBlks + GAP + Dense — the paper's
// proposed network.
func BuildPelican(rng, dropRNG *rand.Rand, cfg BlockConfig, classes int) *nn.Sequential {
	return BuildBlockNet(rng, dropRNG, 10, true, cfg, classes)
}

// BuildLuNet is the authors' earlier plain CNN+GRU design [1], whose block
// this paper adopts as its plain block; depth is configurable for the
// Fig. 2 degradation sweep. The published LuNet uses 3 levels.
func BuildLuNet(rng, dropRNG *rand.Rand, blocks int, cfg BlockConfig, classes int) *nn.Sequential {
	return BuildBlockNet(rng, dropRNG, blocks, false, cfg, classes)
}

// BuildMLP is the multilayer-perceptron baseline (§V-H): two hidden ReLU
// layers with dropout.
func BuildMLP(rng, dropRNG *rand.Rand, features, classes int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewFlatten(),
		nn.NewDense(rng, features, 256),
		nn.NewReLU(),
		nn.NewDropout(dropRNG, 0.3),
		nn.NewDense(rng, 256, 128),
		nn.NewReLU(),
		nn.NewDense(rng, 128, classes),
	)
}

// BuildCNN is the convolutional baseline (§V-H): two conv stages over the
// (1, F) input followed by global pooling.
func BuildCNN(rng, dropRNG *rand.Rand, features, classes int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewConv1D(rng, features, 64, 3, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewMaxPool1D(2),
		nn.NewConv1D(rng, 64, 128, 3, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewDropout(dropRNG, 0.3),
		nn.NewGlobalAvgPool1D(),
		nn.NewDense(rng, 128, classes),
	)
}

// BuildLSTMNet is the recurrent baseline (§V-H): one LSTM layer over the
// (1, F) input.
func BuildLSTMNet(rng, dropRNG *rand.Rand, features, classes int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewLSTM(rng, features, 128, false),
		nn.NewDropout(dropRNG, 0.3),
		nn.NewDense(rng, 128, classes),
	)
}

// BuildHASTIDS is the HAST-IDS baseline (§V-H): a tandem CNN→LSTM — first
// spatial representations by CNN, then temporal by LSTM.
func BuildHASTIDS(rng, dropRNG *rand.Rand, features, classes int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewConv1D(rng, features, 64, 3, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewMaxPool1D(2),
		nn.NewConv1D(rng, 64, 128, 3, nn.PaddingSame),
		nn.NewReLU(),
		nn.NewLSTM(rng, 128, 100, false),
		nn.NewDropout(dropRNG, 0.3),
		nn.NewDense(rng, 100, classes),
	)
}

// Spec describes one registered model and how to build it.
type Spec struct {
	Name        string
	Description string
	// Build constructs the stack for the given encoded feature count and
	// class count. cfg carries the block parameters for block-based nets;
	// baselines ignore most of it. rng draws the initial weights; a nil
	// rng draws nothing and leaves every weight that would be drawn zero,
	// for a caller that overwrites them all (nn.Network.SetState) before
	// use. Constant initial values (BatchNorm scale, the LSTM forget-gate
	// bias) are set either way. dropRNG drives dropout masks and must not
	// be nil when the network trains.
	Build func(rng, dropRNG *rand.Rand, cfg BlockConfig, features, classes int) *nn.Sequential
}

// registry of all model names used by cmd/ tools and the experiment
// harness.
var registry = map[string]Spec{
	"plain-21": {
		Name: "plain-21", Description: "5 plain CNN+GRU blocks + GAP + dense (21 parameter layers)",
		Build: func(rng, dropRNG *rand.Rand, cfg BlockConfig, _, classes int) *nn.Sequential {
			return BuildPlain21(rng, dropRNG, cfg, classes)
		},
	},
	"plain-41": {
		Name: "plain-41", Description: "10 plain CNN+GRU blocks + GAP + dense (41 parameter layers)",
		Build: func(rng, dropRNG *rand.Rand, cfg BlockConfig, _, classes int) *nn.Sequential {
			return BuildPlain41(rng, dropRNG, cfg, classes)
		},
	},
	"residual-21": {
		Name: "residual-21", Description: "5 residual blocks + GAP + dense (21 parameter layers)",
		Build: func(rng, dropRNG *rand.Rand, cfg BlockConfig, _, classes int) *nn.Sequential {
			return BuildResidual21(rng, dropRNG, cfg, classes)
		},
	},
	"pelican": {
		Name: "pelican", Description: "Residual-41: 10 residual blocks + GAP + dense — the paper's design",
		Build: func(rng, dropRNG *rand.Rand, cfg BlockConfig, _, classes int) *nn.Sequential {
			return BuildPelican(rng, dropRNG, cfg, classes)
		},
	},
	"lunet": {
		Name: "lunet", Description: "LuNet: 3 plain CNN+GRU blocks + GAP + dense",
		Build: func(rng, dropRNG *rand.Rand, cfg BlockConfig, _, classes int) *nn.Sequential {
			return BuildLuNet(rng, dropRNG, 3, cfg, classes)
		},
	},
	"mlp": {
		Name: "mlp", Description: "2-hidden-layer perceptron baseline",
		Build: func(rng, dropRNG *rand.Rand, _ BlockConfig, features, classes int) *nn.Sequential {
			return BuildMLP(rng, dropRNG, features, classes)
		},
	},
	"cnn": {
		Name: "cnn", Description: "2-stage Conv1D baseline",
		Build: func(rng, dropRNG *rand.Rand, _ BlockConfig, features, classes int) *nn.Sequential {
			return BuildCNN(rng, dropRNG, features, classes)
		},
	},
	"lstm": {
		Name: "lstm", Description: "single-layer LSTM baseline",
		Build: func(rng, dropRNG *rand.Rand, _ BlockConfig, features, classes int) *nn.Sequential {
			return BuildLSTMNet(rng, dropRNG, features, classes)
		},
	},
	"hast-ids": {
		Name: "hast-ids", Description: "HAST-IDS: tandem CNN→LSTM baseline",
		Build: func(rng, dropRNG *rand.Rand, _ BlockConfig, features, classes int) *nn.Sequential {
			return BuildHASTIDS(rng, dropRNG, features, classes)
		},
	},
}

// Lookup returns the spec for a registered model name.
func Lookup(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists all registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
