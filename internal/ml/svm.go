package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// SVMConfig controls the RBF-kernel SVM (§V-H: "SVM (RBF)").
type SVMConfig struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Gamma is the RBF width; 0 selects 1/d ("scale"-free default).
	Gamma float64
	// Tol is the KKT violation tolerance (default 1e-3).
	Tol float64
	// MaxPasses is how many consecutive passes without alpha changes end
	// training (default 3).
	MaxPasses int
	// MaxIter caps total optimization sweeps (default 200).
	MaxIter int
	// Subsample caps the training-set size; kernel methods scale O(n²)
	// ("a low generation capability on learning large scale data", §V-H).
	// 0 means no cap.
	Subsample int
	// Classes is the number of classes; required.
	Classes int
	// Seed drives subsampling and SMO's random second-index choice.
	Seed int64
}

// SVM is a one-vs-rest multi-class RBF SVM trained with simplified SMO.
// The kernel matrix is computed once and shared by all binary problems.
type SVM struct {
	Cfg SVMConfig

	x     *tensor.Tensor // retained training rows (possibly subsampled)
	gamma float64
	// per-class dual coefficients y_i·α_i and bias.
	coef [][]float64
	bias []float64
}

// NewSVM constructs an unfitted SVM.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 3
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	return &SVM{Cfg: cfg}
}

var _ Classifier = (*SVM)(nil)

// Fit implements Classifier.
func (s *SVM) Fit(x *tensor.Tensor, y []int) error {
	n, d := x.Dim(0), x.Dim(1)
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if s.Cfg.Classes < 2 {
		return fmt.Errorf("ml: SVMConfig.Classes = %d, need >= 2", s.Cfg.Classes)
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed))

	// Subsample if configured (stratified-ish: plain random is fine for
	// the sizes involved, but keep at least one per present class).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if s.Cfg.Subsample > 0 && n > s.Cfg.Subsample {
		rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		idx = idx[:s.Cfg.Subsample]
	}
	m := len(idx)
	xs := tensor.New(m, d)
	ys := make([]int, m)
	for i, j := range idx {
		copy(xs.Row(i), x.Row(j))
		ys[i] = y[j]
	}
	s.x = xs
	s.gamma = s.Cfg.Gamma
	if s.gamma <= 0 {
		s.gamma = 1.0 / float64(d)
	}

	// Precompute the kernel matrix once (parallel rows); shared across the
	// one-vs-rest binary problems.
	kmat := s.kernelMatrix(xs)

	s.coef = make([][]float64, s.Cfg.Classes)
	s.bias = make([]float64, s.Cfg.Classes)
	for c := 0; c < s.Cfg.Classes; c++ {
		yy := make([]float64, m)
		pos := 0
		for i, yi := range ys {
			if yi == c {
				yy[i] = 1
				pos++
			} else {
				yy[i] = -1
			}
		}
		if pos == 0 || pos == m {
			// Class absent (or exclusive) in the subsample: decision is the
			// constant majority sign.
			s.coef[c] = make([]float64, m)
			if pos == m {
				s.bias[c] = 1
			} else {
				s.bias[c] = -1
			}
			continue
		}
		alpha, b := smo(kmat, yy, s.Cfg.C, s.Cfg.Tol, s.Cfg.MaxPasses, s.Cfg.MaxIter, rand.New(rand.NewSource(s.Cfg.Seed+int64(c)+1)))
		coef := make([]float64, m)
		for i := range coef {
			coef[i] = alpha[i] * yy[i]
		}
		s.coef[c] = coef
		s.bias[c] = b
	}
	return nil
}

// kernelMatrix computes the m×m RBF Gram matrix in parallel.
func (s *SVM) kernelMatrix(x *tensor.Tensor) []float64 {
	m := x.Dim(0)
	k := make([]float64, m*m)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += band {
		hi := lo + band
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ri := x.Row(i)
				for j := 0; j <= i; j++ {
					v := rbf(ri, x.Row(j), s.gamma)
					k[i*m+j] = v
					k[j*m+i] = v
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return k
}

// rbf computes exp(−γ‖a−b‖²).
func rbf(a, b []float64, gamma float64) float64 {
	d := 0.0
	for i, av := range a {
		diff := av - b[i]
		d += diff * diff
	}
	return math.Exp(-gamma * d)
}

// smo runs simplified SMO (Platt) over a precomputed kernel matrix for a
// binary problem with labels y ∈ {−1, +1}, returning the dual variables
// and bias.
func smo(kmat []float64, y []float64, c, tol float64, maxPasses, maxIter int, rng *rand.Rand) (alpha []float64, b float64) {
	m := len(y)
	alpha = make([]float64, m)
	// f(i) = Σ_j α_j y_j K(i,j) + b; maintain incrementally via errs.
	fOf := func(i int) float64 {
		s := b
		row := kmat[i*m : (i+1)*m]
		for j, aj := range alpha {
			if aj != 0 {
				s += aj * y[j] * row[j]
			}
		}
		return s
	}

	passes, iter := 0, 0
	for passes < maxPasses && iter < maxIter {
		changed := 0
		for i := 0; i < m; i++ {
			ei := fOf(i) - y[i]
			if (y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0) {
				j := rng.Intn(m - 1)
				if j >= i {
					j++
				}
				ej := fOf(j) - y[j]
				aiOld, ajOld := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, ajOld-aiOld)
					hi = math.Min(c, c+ajOld-aiOld)
				} else {
					lo = math.Max(0, aiOld+ajOld-c)
					hi = math.Min(c, aiOld+ajOld)
				}
				if lo == hi {
					continue
				}
				eta := 2*kmat[i*m+j] - kmat[i*m+i] - kmat[j*m+j]
				if eta >= 0 {
					continue
				}
				aj := ajOld - y[j]*(ei-ej)/eta
				if aj > hi {
					aj = hi
				} else if aj < lo {
					aj = lo
				}
				if math.Abs(aj-ajOld) < 1e-5 {
					continue
				}
				ai := aiOld + y[i]*y[j]*(ajOld-aj)
				alpha[i], alpha[j] = ai, aj

				b1 := b - ei - y[i]*(ai-aiOld)*kmat[i*m+i] - y[j]*(aj-ajOld)*kmat[i*m+j]
				b2 := b - ej - y[i]*(ai-aiOld)*kmat[i*m+j] - y[j]*(aj-ajOld)*kmat[j*m+j]
				switch {
				case ai > 0 && ai < c:
					b = b1
				case aj > 0 && aj < c:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				changed++
			}
		}
		iter++
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return alpha, b
}

// Predict implements Classifier: argmax over the one-vs-rest decision
// values. Rows are scored in parallel.
func (s *SVM) Predict(x *tensor.Tensor) []int {
	n := x.Dim(0)
	m := s.x.Dim(0)
	out := make([]int, n)

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	band := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += band {
		hi := lo + band
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			krow := make([]float64, m)
			for i := lo; i < hi; i++ {
				ri := x.Row(i)
				for j := 0; j < m; j++ {
					krow[j] = rbf(ri, s.x.Row(j), s.gamma)
				}
				best, bi := math.Inf(-1), 0
				for c := range s.coef {
					score := s.bias[c]
					for j, cj := range s.coef[c] {
						if cj != 0 {
							score += cj * krow[j]
						}
					}
					if score > best {
						best, bi = score, c
					}
				}
				out[i] = bi
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
