package data

import (
	"fmt"
	"math/rand"
)

// Fold is one train/test split of record indices.
type Fold struct {
	Train []int
	Test  []int
}

// StratifiedKFold splits records into k folds preserving per-class
// proportions, which matters for the rare attack classes (U2R is 0.3% of
// NSL-KDD; Worms is 0.07% of UNSW-NB15).
func StratifiedKFold(rng *rand.Rand, labels []int, k int) []Fold {
	n := len(labels)
	if k < 2 || k > n {
		panic(fmt.Sprintf("data: StratifiedKFold k=%d invalid for n=%d", k, n))
	}
	// Bucket indices by class, shuffle within class, then deal them
	// round-robin into folds.
	byClass := map[int][]int{}
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	testOf := make([][]int, k)
	classes := make([]int, 0, len(byClass))
	for y := range byClass {
		classes = append(classes, y)
	}
	// Deterministic class order (map iteration is random).
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	for _, y := range classes {
		idx := byClass[y]
		if rng != nil {
			rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		}
		for j, rec := range idx {
			f := j % k
			testOf[f] = append(testOf[f], rec)
		}
	}
	folds := make([]Fold, k)
	inTest := make([]int, n) // fold index + 1, 0 = unassigned
	for f, test := range testOf {
		for _, i := range test {
			inTest[i] = f + 1
		}
	}
	for f := 0; f < k; f++ {
		train := make([]int, 0, n-len(testOf[f]))
		for i := 0; i < n; i++ {
			if inTest[i] != f+1 {
				train = append(train, i)
			}
		}
		folds[f] = Fold{Train: train, Test: testOf[f]}
	}
	return folds
}

// TrainTestSplit returns a single split with the given test fraction,
// stratified by label.
func TrainTestSplit(rng *rand.Rand, labels []int, testFrac float64) Fold {
	if testFrac <= 0 || testFrac >= 1 {
		panic(fmt.Sprintf("data: TrainTestSplit fraction %v outside (0,1)", testFrac))
	}
	k := int(1 / testFrac)
	if k < 2 {
		k = 2
	}
	folds := StratifiedKFold(rng, labels, k)
	return folds[0]
}
