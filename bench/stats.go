package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending-sorted sample: the smallest value with at least p of the
// sample at or below it. Empty samples yield 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering its argument.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// a spread computed here equals the one the PR driver computes. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged by.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}

// timedValue is one observation placed on a phase's time axis.
type timedValue struct {
	at float64 // seconds since the phase started
	v  float64
}

// windowedMedian splits [0, dur) into n equal windows by each
// observation's time, reduces every non-empty window with f, and
// returns the median of the per-window results — so one stalled window
// (a VM hiccup) moves the result no more than one vote in n.
// Observations outside [0, dur) are ignored.
func windowedMedian(obs []timedValue, dur float64, n int, f func(sorted []float64) float64) float64 {
	if n < 1 || dur <= 0 {
		return 0
	}
	wins := make([][]float64, n)
	for _, o := range obs {
		if o.at < 0 || o.at >= dur {
			continue
		}
		i := int(o.at / dur * float64(n))
		if i >= n {
			i = n - 1
		}
		wins[i] = append(wins[i], o.v)
	}
	var per []float64
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		per = append(per, f(w))
	}
	return median(per)
}
