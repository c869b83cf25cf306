package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// informativeData builds a dataset where only feature 0 carries label
// signal; the rest is noise.
func informativeData(rng *rand.Rand, n, d int) (*tensor.Tensor, []int) {
	x := tensor.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if row[0] > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func TestTreeImportanceFindsInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := informativeData(rng, 500, 6)
	tr := NewTree(TreeConfig{Classes: 2, MaxDepth: 4})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance(6)
	if imp[0] < 0.8 {
		t.Fatalf("informative feature importance %v, want > 0.8 (all: %v)", imp[0], imp)
	}
	total := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", total)
	}
}

func TestForestImportanceFindsInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := informativeData(rng, 600, 8)
	fo := NewForest(ForestConfig{Trees: 20, MaxDepth: 5, Classes: 2, Seed: 3})
	if err := fo.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := fo.FeatureImportance(8)
	best := 0
	for i, v := range imp {
		if v > imp[best] {
			best = i
		}
	}
	if best != 0 {
		t.Fatalf("forest ranked feature %d most important, want 0 (all: %v)", best, imp)
	}
}

func TestImportanceOnLeafOnlyTree(t *testing.T) {
	// A pure dataset yields a single leaf; importance must be all zeros
	// without NaNs.
	x := tensor.New(10, 3)
	y := make([]int, 10) // all class 0
	tr := NewTree(TreeConfig{Classes: 2})
	if err := tr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.FeatureImportance(3) {
		if v != 0 {
			t.Fatalf("leaf-only tree has nonzero importance: %v", v)
		}
	}
}

// FeatureImportance returns the gini-importance of every feature in a
// fitted tree: the total weighted impurity decrease contributed by splits
// on that feature, normalized to sum to 1.
func (t *Tree) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	accumulateImportance(t.root, imp)
	normalizeImportance(imp)
	return imp
}

// accumulateImportance walks the tree adding each split's impurity
// decrease (weighted by the node's sample mass) to its feature.
func accumulateImportance(n *treeNode, imp []float64) {
	if n == nil || n.feature < 0 {
		return
	}
	total := sumF(n.dist)
	leftTotal := sumF(n.left.dist)
	rightTotal := sumF(n.right.dist)
	if total > 0 && n.feature < len(imp) {
		parent := giniOf(n.dist, total)
		child := 0.0
		if leftTotal > 0 {
			child += leftTotal / total * giniOf(n.left.dist, leftTotal)
		}
		if rightTotal > 0 {
			child += rightTotal / total * giniOf(n.right.dist, rightTotal)
		}
		if dec := parent - child; dec > 0 {
			imp[n.feature] += total * dec
		}
	}
	accumulateImportance(n.left, imp)
	accumulateImportance(n.right, imp)
}

// FeatureImportance returns the forest-averaged gini importance.
func (f *Forest) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	for _, tree := range f.trees {
		ti := tree.FeatureImportance(numFeatures)
		for i, v := range ti {
			imp[i] += v
		}
	}
	normalizeImportance(imp)
	return imp
}

func sumF(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func normalizeImportance(imp []float64) {
	s := sumF(imp)
	if s <= 0 {
		return
	}
	for i := range imp {
		imp[i] /= s
	}
}
