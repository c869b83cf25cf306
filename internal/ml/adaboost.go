package ml

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// AdaBoostConfig controls SAMME boosting.
type AdaBoostConfig struct {
	// Rounds is the number of weak learners (default 50).
	Rounds int
	// StumpDepth is the weak tree depth (default 1: decision stumps —
	// "many cascaded weak classifiers", §V-H).
	StumpDepth int
	// Classes is the number of classes; required.
	Classes int
	// Seed drives the weak learners' feature subsampling.
	Seed int64
}

// AdaBoost is the multi-class SAMME algorithm over depth-limited CART
// weak learners.
type AdaBoost struct {
	Cfg    AdaBoostConfig
	stumps []*Tree
	alphas []float64
}

// NewAdaBoost constructs an unfitted booster.
func NewAdaBoost(cfg AdaBoostConfig) *AdaBoost {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 50
	}
	if cfg.StumpDepth <= 0 {
		cfg.StumpDepth = 1
	}
	return &AdaBoost{Cfg: cfg}
}

var _ Classifier = (*AdaBoost)(nil)

// Fit implements Classifier using SAMME: each round fits a weighted weak
// learner, weighs it by log((1−err)/err) + log(K−1), and upweights the
// samples it misclassified.
func (a *AdaBoost) Fit(x *tensor.Tensor, y []int) error {
	n := x.Dim(0)
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	k := float64(a.Cfg.Classes)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(n)
	}
	a.stumps = a.stumps[:0]
	a.alphas = a.alphas[:0]

	for round := 0; round < a.Cfg.Rounds; round++ {
		stump := NewTree(TreeConfig{
			MaxDepth: a.Cfg.StumpDepth,
			MinLeaf:  1,
			Classes:  a.Cfg.Classes,
			Seed:     a.Cfg.Seed + int64(round)*6271,
		})
		if err := stump.FitWeighted(x, y, w); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		pred := stump.Predict(x)
		errW := 0.0
		for i, p := range pred {
			if p != y[i] {
				errW += w[i]
			}
		}
		if errW >= 1-1/k {
			// Worse than random guessing: stop (SAMME requirement).
			break
		}
		if errW < 1e-10 {
			// Perfect learner: give it a large finite weight and stop.
			a.stumps = append(a.stumps, stump)
			a.alphas = append(a.alphas, 10+math.Log(k-1))
			break
		}
		alpha := math.Log((1-errW)/errW) + math.Log(k-1)
		a.stumps = append(a.stumps, stump)
		a.alphas = append(a.alphas, alpha)

		// Reweight and renormalize.
		sum := 0.0
		for i, p := range pred {
			if p != y[i] {
				w[i] *= math.Exp(alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(a.stumps) == 0 {
		return fmt.Errorf("ml: AdaBoost found no weak learner better than chance")
	}
	return nil
}

// Predict implements Classifier: argmax over alpha-weighted votes.
func (a *AdaBoost) Predict(x *tensor.Tensor) []int {
	n := x.Dim(0)
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, a.Cfg.Classes)
	}
	for m, stump := range a.stumps {
		pred := stump.Predict(x)
		for i, p := range pred {
			scores[i][p] += a.alphas[m]
		}
	}
	out := make([]int, n)
	for i, s := range scores {
		out[i] = argmaxF(s)
	}
	return out
}
