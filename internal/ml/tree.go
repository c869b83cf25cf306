// Package ml implements the classical machine-learning baselines of the
// paper's comparative study (§V-H) from scratch: a CART decision tree,
// Random Forest, AdaBoost (SAMME), and an RBF-kernel SVM trained with SMO.
// All classifiers share the Classifier interface and operate on the same
// encoded matrices the neural networks consume.
package ml

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/tensor"
)

// Classifier is a multi-class learner over dense feature matrices.
type Classifier interface {
	// Fit trains on x (n×d) with labels y in [0, classes).
	Fit(x *tensor.Tensor, y []int) error
	// Predict returns one class per row of x.
	Predict(x *tensor.Tensor) []int
}

// TreeConfig controls CART induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures restricts how many features are examined per split;
	// 0 means all. Random Forest sets this to √d.
	MaxFeatures int
	// Classes is the number of classes; required.
	Classes int
	// Seed drives feature subsampling.
	Seed int64
}

// treeNode is one CART node; leaves have feature == -1.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	class     int
	// dist is the (weighted) class distribution at this node, used for
	// probability estimates.
	dist []float64
}

// Tree is a CART decision tree with gini impurity, supporting sample
// weights (needed by AdaBoost).
type Tree struct {
	Cfg  TreeConfig
	root *treeNode
	rng  *rand.Rand
}

// NewTree constructs an unfitted tree.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Tree{Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

var _ Classifier = (*Tree)(nil)

// Fit implements Classifier with uniform sample weights.
func (t *Tree) Fit(x *tensor.Tensor, y []int) error {
	return t.FitWeighted(x, y, nil)
}

// FitWeighted trains with per-sample weights (nil = uniform).
func (t *Tree) FitWeighted(x *tensor.Tensor, y []int, w []float64) error {
	n := x.Dim(0)
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(y) != n {
		return fmt.Errorf("ml: %d rows but %d labels", n, len(y))
	}
	if t.Cfg.Classes < 2 {
		return fmt.Errorf("ml: TreeConfig.Classes = %d, need >= 2", t.Cfg.Classes)
	}
	for i, yi := range y {
		if yi < 0 || yi >= t.Cfg.Classes {
			return fmt.Errorf("ml: label %d at row %d out of range", yi, i)
		}
	}
	if w == nil {
		w = make([]float64, n)
		uniform := 1.0 / float64(n)
		for i := range w {
			w[i] = uniform
		}
	} else if len(w) != n {
		return fmt.Errorf("ml: %d rows but %d weights", n, len(w))
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(x, y, w, idx, 0)
	return nil
}

// grow recursively builds the subtree over the samples in idx.
func (t *Tree) grow(x *tensor.Tensor, y []int, w []float64, idx []int, depth int) *treeNode {
	dist := make([]float64, t.Cfg.Classes)
	total := 0.0
	for _, i := range idx {
		dist[y[i]] += w[i]
		total += w[i]
	}
	node := &treeNode{feature: -1, dist: dist, class: argmaxF(dist)}

	if len(idx) < 2*t.Cfg.MinLeaf || (t.Cfg.MaxDepth > 0 && depth >= t.Cfg.MaxDepth) || isPure(dist) {
		return node
	}

	f, thr, gain := t.bestSplit(x, y, w, idx, dist, total)
	if f < 0 || gain <= 1e-12 {
		return node
	}

	var left, right []int
	for _, i := range idx {
		if x.At(i, f) <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.Cfg.MinLeaf || len(right) < t.Cfg.MinLeaf {
		return node
	}
	node.feature = f
	node.threshold = thr
	node.left = t.grow(x, y, w, left, depth+1)
	node.right = t.grow(x, y, w, right, depth+1)
	return node
}

// bestSplit scans (a subsample of) features for the weighted-gini-optimal
// threshold. Returns feature -1 when no split improves impurity.
func (t *Tree) bestSplit(x *tensor.Tensor, y []int, w []float64, idx []int, dist []float64, total float64) (feature int, threshold, gain float64) {
	d := x.Dim(1)
	features := t.featureCandidates(d)
	parentGini := giniOf(dist, total)

	bestF, bestThr, bestGain := -1, 0.0, 0.0

	type sample struct {
		v float64
		y int
		w float64
	}
	samples := make([]sample, len(idx))
	leftDist := make([]float64, t.Cfg.Classes)

	for _, f := range features {
		for si, i := range idx {
			samples[si] = sample{v: x.At(i, f), y: y[i], w: w[i]}
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a].v < samples[b].v })

		for c := range leftDist {
			leftDist[c] = 0
		}
		leftTotal := 0.0
		for si := 0; si < len(samples)-1; si++ {
			s := samples[si]
			leftDist[s.y] += s.w
			leftTotal += s.w
			if samples[si+1].v <= s.v {
				continue // can't split between equal values
			}
			rightTotal := total - leftTotal
			if leftTotal <= 0 || rightTotal <= 0 {
				continue
			}
			gl := giniLeftRight(leftDist, dist, leftTotal, rightTotal)
			g := parentGini - gl
			if g > bestGain {
				bestGain = g
				bestF = f
				bestThr = (s.v + samples[si+1].v) / 2
			}
		}
	}
	return bestF, bestThr, bestGain
}

// featureCandidates returns the feature indices to consider at a node.
func (t *Tree) featureCandidates(d int) []int {
	if t.Cfg.MaxFeatures <= 0 || t.Cfg.MaxFeatures >= d {
		out := make([]int, d)
		for i := range out {
			out[i] = i
		}
		return out
	}
	perm := t.rng.Perm(d)
	return perm[:t.Cfg.MaxFeatures]
}

// giniOf computes the gini impurity of a weighted class distribution.
func giniOf(dist []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 1.0
	for _, c := range dist {
		p := c / total
		s -= p * p
	}
	return s
}

// giniLeftRight computes the weighted child impurity given the left
// distribution and the parent distribution.
func giniLeftRight(left, parent []float64, leftTotal, rightTotal float64) float64 {
	total := leftTotal + rightTotal
	gl, gr := 1.0, 1.0
	for c, lv := range left {
		pl := lv / leftTotal
		gl -= pl * pl
		pr := (parent[c] - lv) / rightTotal
		gr -= pr * pr
	}
	return (leftTotal*gl + rightTotal*gr) / total
}

func isPure(dist []float64) bool {
	nonzero := 0
	for _, v := range dist {
		if v > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argmaxF(v []float64) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Predict implements Classifier.
func (t *Tree) Predict(x *tensor.Tensor) []int {
	n := x.Dim(0)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = t.predictRow(x.Row(i))
	}
	return out
}

func (t *Tree) predictRow(row []float64) int {
	node := t.root
	for node.feature >= 0 {
		if row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.class
}
