package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// blobs generates k Gaussian clusters in d dims with the given spread.
func blobs(rng *rand.Rand, n, d, k int, spread float64) (*tensor.Tensor, []int) {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 4
		}
	}
	x := tensor.New(n, d)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		y[i] = c
		row := x.Row(i)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*spread
		}
	}
	return x, y
}

// xorData is the classic nonlinear two-class problem: class = sign(x0·x1).
func xorData(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(a, i, 0)
		x.Set(b, i, 1)
		if a*b > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func accOf(pred, y []int) float64 {
	c := 0
	for i, p := range pred {
		if p == y[i] {
			c++
		}
	}
	return float64(c) / float64(len(y))
}

func TestTreeLearnsAxisAlignedSplit(t *testing.T) {
	x := tensor.FromSlice([]float64{
		0, 0, 1, 0, 2, 0, 10, 0, 11, 0, 12, 0,
	}, 6, 2)
	y := []int{0, 0, 0, 1, 1, 1}
	tr := NewTree(TreeConfig{Classes: 2, MaxDepth: 2})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accOf(tr.Predict(x), y); acc != 1 {
		t.Fatalf("tree failed trivial split: acc %v", acc)
	}
	if tr.Depth() != 1 {
		t.Fatalf("expected a single split, depth %d", tr.Depth())
	}
}

func TestTreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 600, 5, 3, 1.0)
	xt, yt := blobs(rand.New(rand.NewSource(1)), 600, 5, 3, 1.0)
	tr := NewTree(TreeConfig{Classes: 3, MaxDepth: 8})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := accOf(tr.Predict(xt), yt); acc < 0.9 {
		t.Fatalf("tree blob accuracy %v < 0.9", acc)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := blobs(rng, 400, 4, 4, 2.0)
	tr := NewTree(TreeConfig{Classes: 4, MaxDepth: 3})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if d := tr.Depth(); d > 3 {
		t.Fatalf("depth %d exceeds MaxDepth 3", d)
	}
}

func TestTreeWeightedFitBiasesTowardHeavySamples(t *testing.T) {
	// Two overlapping points; weight decides the majority class.
	x := tensor.FromSlice([]float64{0, 0, 0, 0}, 4, 1)
	y := []int{0, 0, 1, 1}
	w := []float64{0.05, 0.05, 0.45, 0.45}
	tr := NewTree(TreeConfig{Classes: 2})
	if err := tr.FitWeighted(x, y, w); err != nil {
		t.Fatalf("FitWeighted: %v", err)
	}
	if p := tr.Predict(x); p[0] != 1 {
		t.Fatalf("weighted majority should be class 1, got %d", p[0])
	}
}

func TestTreeErrorCases(t *testing.T) {
	tr := NewTree(TreeConfig{Classes: 2})
	if err := tr.Fit(tensor.New(0, 2), nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if err := tr.Fit(tensor.New(2, 2), []int{0}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if err := tr.Fit(tensor.New(2, 2), []int{0, 5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	tr2 := NewTree(TreeConfig{Classes: 1})
	if err := tr2.Fit(tensor.New(2, 2), []int{0, 0}); err == nil {
		t.Fatal("single-class config accepted")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 800, 8, 3, 2.5)
	xt, yt := blobs(rand.New(rand.NewSource(3)), 800, 8, 3, 2.5)

	tr := NewTree(TreeConfig{Classes: 3, MaxDepth: 12})
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("tree Fit: %v", err)
	}
	fo := NewForest(ForestConfig{Trees: 30, MaxDepth: 12, Classes: 3, Seed: 9})
	if err := fo.Fit(x, y); err != nil {
		t.Fatalf("forest Fit: %v", err)
	}
	treeAcc := accOf(tr.Predict(xt), yt)
	forestAcc := accOf(fo.Predict(xt), yt)
	if forestAcc < treeAcc-0.02 {
		t.Fatalf("forest (%.3f) should not be worse than tree (%.3f)", forestAcc, treeAcc)
	}
	if fo.TreeCount() != 30 {
		t.Fatalf("TreeCount = %d, want 30", fo.TreeCount())
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 300, 4, 2, 1.5)
	f1 := NewForest(ForestConfig{Trees: 10, MaxDepth: 6, Classes: 2, Seed: 5})
	f2 := NewForest(ForestConfig{Trees: 10, MaxDepth: 6, Classes: 2, Seed: 5})
	if err := f1.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := f2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1, p2 := f1.Predict(x), f2.Predict(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestAdaBoostImprovesOverSingleStump(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := blobs(rng, 500, 6, 2, 3.0)
	xt, yt := blobs(rand.New(rand.NewSource(5)), 500, 6, 2, 3.0)

	stump := NewTree(TreeConfig{Classes: 2, MaxDepth: 1})
	if err := stump.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	boost := NewAdaBoost(AdaBoostConfig{Rounds: 40, StumpDepth: 1, Classes: 2, Seed: 6})
	if err := boost.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	sAcc := accOf(stump.Predict(xt), yt)
	bAcc := accOf(boost.Predict(xt), yt)
	if bAcc <= sAcc {
		t.Fatalf("AdaBoost (%.3f) did not improve over stump (%.3f)", bAcc, sAcc)
	}
}

func TestAdaBoostMulticlassSAMME(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := blobs(rng, 600, 5, 4, 1.2)
	boost := NewAdaBoost(AdaBoostConfig{Rounds: 60, StumpDepth: 2, Classes: 4, Seed: 7})
	if err := boost.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(boost.Predict(x), y); acc < 0.8 {
		t.Fatalf("SAMME 4-class training accuracy %v < 0.8", acc)
	}
	if boost.Rounds() == 0 {
		t.Fatal("no weak learners kept")
	}
}

func TestSVMLearnsLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(a, i, 0)
		x.Set(b, i, 1)
		if a+b > 0.0 {
			y[i] = 1
		}
		// Margin: push points away from the boundary.
		if math.Abs(a+b) < 0.3 {
			x.Set(a+math.Copysign(0.3, a+b), i, 0)
		}
	}
	svm := NewSVM(SVMConfig{C: 1, Classes: 2, Seed: 8})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(svm.Predict(x), y); acc < 0.95 {
		t.Fatalf("SVM linear accuracy %v < 0.95", acc)
	}
}

func TestSVMRBFLearnsXOR(t *testing.T) {
	// RBF kernel must solve a problem no linear separator can.
	rng := rand.New(rand.NewSource(9))
	x, y := xorData(rng, 300)
	xt, yt := xorData(rand.New(rand.NewSource(10)), 300)
	svm := NewSVM(SVMConfig{C: 5, Gamma: 1, Classes: 2, Seed: 11})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(svm.Predict(xt), yt); acc < 0.85 {
		t.Fatalf("RBF SVM XOR accuracy %v < 0.85", acc)
	}
}

func TestSVMMulticlassBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := blobs(rng, 400, 4, 3, 1.0)
	svm := NewSVM(SVMConfig{C: 1, Classes: 3, Seed: 13})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accOf(svm.Predict(x), y); acc < 0.9 {
		t.Fatalf("multiclass SVM accuracy %v < 0.9", acc)
	}
	sv := svm.SupportVectorCount()
	if len(sv) != 3 {
		t.Fatalf("SupportVectorCount classes = %d", len(sv))
	}
}

func TestSVMSubsampleCapsTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y := blobs(rng, 500, 3, 2, 1.0)
	svm := NewSVM(SVMConfig{C: 1, Classes: 2, Subsample: 100, Seed: 15})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := svm.x.Dim(0); got != 100 {
		t.Fatalf("subsampled training size %d, want 100", got)
	}
	// Still usable.
	if acc := accOf(svm.Predict(x), y); acc < 0.85 {
		t.Fatalf("subsampled SVM accuracy %v < 0.85", acc)
	}
}

func TestSVMHandlesAbsentClass(t *testing.T) {
	// A class never observed must not break fit/predict.
	rng := rand.New(rand.NewSource(16))
	x, y := blobs(rng, 100, 3, 2, 1.0) // labels 0/1 only
	svm := NewSVM(SVMConfig{C: 1, Classes: 3, Seed: 17})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := svm.Predict(x)
	for _, p := range pred {
		if p == 2 {
			t.Fatal("absent class predicted")
		}
	}
}

func TestRBFKernelProperties(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{1, 2}
	if v := rbf(a, b, 0.5); v != 1 {
		t.Fatalf("K(x,x) = %v, want 1", v)
	}
	c := []float64{100, -100}
	if v := rbf(a, c, 0.5); v > 1e-10 {
		t.Fatalf("distant kernel %v, want ≈0", v)
	}
}

// Depth returns the fitted tree's depth (0 for a single leaf).
func (t *Tree) Depth() int { return nodeDepth(t.root) }

// Rounds returns the number of weak learners actually kept.
func (a *AdaBoost) Rounds() int { return len(a.stumps) }

// TreeCount returns the number of fitted trees.
func (f *Forest) TreeCount() int { return len(f.trees) }

// SupportVectorCount returns, per class, how many training points carry
// non-zero dual coefficients.
func (s *SVM) SupportVectorCount() []int {
	out := make([]int, len(s.coef))
	for c, coef := range s.coef {
		for _, v := range coef {
			if v != 0 {
				out[c]++
			}
		}
	}
	return out
}

func nodeDepth(n *treeNode) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
