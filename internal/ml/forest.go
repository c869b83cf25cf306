package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// ForestConfig controls Random Forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// MaxFeatures per split; 0 selects √d automatically.
	MaxFeatures int
	// Classes is the number of classes; required.
	Classes int
	// Seed drives bootstrap sampling and per-tree feature subsampling.
	Seed int64
}

// Forest is a Random Forest: bagged CART trees with per-split feature
// subsampling, majority-voted (§V-H: "RF ... uses a different strategy of
// weight allocation" vs boosting).
type Forest struct {
	Cfg   ForestConfig
	trees []*Tree
}

// NewForest constructs an unfitted Random Forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Forest{Cfg: cfg}
}

var _ Classifier = (*Forest)(nil)

// Fit implements Classifier. Trees are trained in parallel.
func (f *Forest) Fit(x *tensor.Tensor, y []int) error {
	n, d := x.Dim(0), x.Dim(1)
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	maxFeat := f.Cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(d)))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	f.trees = make([]*Tree, f.Cfg.Trees)
	errs := make([]error, f.Cfg.Trees)

	workers := runtime.GOMAXPROCS(0)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ti := 0; ti < f.Cfg.Trees; ti++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(f.Cfg.Seed + int64(ti)*7919))
			// Bootstrap sample with replacement.
			bx := tensor.New(n, d)
			by := make([]int, n)
			for i := 0; i < n; i++ {
				j := rng.Intn(n)
				copy(bx.Row(i), x.Row(j))
				by[i] = y[j]
			}
			tree := NewTree(TreeConfig{
				MaxDepth:    f.Cfg.MaxDepth,
				MinLeaf:     f.Cfg.MinLeaf,
				MaxFeatures: maxFeat,
				Classes:     f.Cfg.Classes,
				Seed:        f.Cfg.Seed + int64(ti)*104729,
			})
			errs[ti] = tree.Fit(bx, by)
			f.trees[ti] = tree
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Predict implements Classifier by majority vote.
func (f *Forest) Predict(x *tensor.Tensor) []int {
	n := x.Dim(0)
	votes := make([][]int, n)
	for i := range votes {
		votes[i] = make([]int, f.Cfg.Classes)
	}
	for _, tree := range f.trees {
		pred := tree.Predict(x)
		for i, p := range pred {
			votes[i][p]++
		}
	}
	out := make([]int, n)
	for i, v := range votes {
		best, bi := -1, 0
		for c, cnt := range v {
			if cnt > best {
				best, bi = cnt, c
			}
		}
		out[i] = bi
	}
	return out
}
