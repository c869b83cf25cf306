package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// randomDataset builds a random dataset against testSchema.
func randomDataset(rng *rand.Rand, n int) *Dataset {
	s := testSchema()
	ds := &Dataset{Schema: s, Records: make([]Record, n)}
	for i := 0; i < n; i++ {
		ds.Records[i] = Record{
			Numeric: []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 100},
			Categorical: []string{
				s.Categorical[0].Values[rng.Intn(3)],
				s.Categorical[1].Values[rng.Intn(2)],
			},
			Label: rng.Intn(3),
		}
	}
	return ds
}

// TestPropOneHotBlocksSumToOne: each categorical block of an encoded row
// has exactly one hot bit (for in-vocabulary values).
func TestPropOneHotBlocksSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 1+rng.Intn(50))
		enc := NewEncoder(ds.Schema)
		x, _ := enc.Encode(ds)
		nn := ds.Schema.NumNumeric()
		for r := 0; r < x.Dim(0); r++ {
			row := x.Row(r)
			// proto block: columns [nn, nn+3); flag block [nn+3, nn+5).
			s1 := row[nn] + row[nn+1] + row[nn+2]
			s2 := row[nn+3] + row[nn+4]
			if s1 != 1 || s2 != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropEncodePreservesNumeric: numeric features pass through
// untouched.
func TestPropEncodePreservesNumeric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 1+rng.Intn(30))
		enc := NewEncoder(ds.Schema)
		x, _ := enc.Encode(ds)
		for r := range ds.Records {
			for j, v := range ds.Records[r].Numeric {
				if x.At(r, j) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropScalerInverse: standardize then un-standardize recovers the
// original matrix.
func TestPropScalerInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(40), 1+rng.Intn(6)
		x := tensor.RandNormal(rng, rng.NormFloat64()*5, 1+rng.Float64()*4, n, d)
		orig := x.Clone()
		s := FitScaler(x)
		s.Transform(x)
		// Invert: x*std + mean.
		for r := 0; r < n; r++ {
			row := x.Row(r)
			for c := range row {
				row[c] = row[c]*s.Std[c] + s.Mean[c]
			}
		}
		return tensor.ApproxEqual(x, orig, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropKFoldTrainTestDisjoint: train and test never overlap and cover
// everything, for any k and n.
func TestPropKFoldTrainTestDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		k := 2 + rng.Intn(8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		folds := StratifiedKFold(rng, labels, k)
		for _, fd := range folds {
			seen := make(map[int]int, n)
			for _, i := range fd.Train {
				seen[i]++
			}
			for _, i := range fd.Test {
				seen[i] += 10
			}
			if len(seen) != n {
				return false
			}
			for _, v := range seen {
				if v != 1 && v != 10 {
					return false // duplicated or in both sets
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropStratifiedFoldClassBalance: per-fold class proportions stay
// within one record of the ideal share.
func TestPropStratifiedFoldClassBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(300)
		k := 2 + rng.Intn(4)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		classTotal := make([]int, 3)
		for _, y := range labels {
			classTotal[y]++
		}
		folds := StratifiedKFold(rng, labels, k)
		for _, fd := range folds {
			counts := make([]int, 3)
			for _, i := range fd.Test {
				counts[labels[i]]++
			}
			for c := 0; c < 3; c++ {
				ideal := float64(classTotal[c]) / float64(k)
				if math.Abs(float64(counts[c])-ideal) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
