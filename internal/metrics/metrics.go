// Package metrics implements the paper's evaluation metrics (§V-B):
// validation accuracy (ACC), detection rate (DR) and false-alarm rate
// (FAR), computed from a multi-class confusion matrix collapsed into the
// binary attack-vs-normal view the paper's Eqs. (3)–(5) use, plus per-class
// precision/recall and the paper's table layout.
package metrics

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Confusion is a multi-class confusion matrix: Counts[actual][predicted].
type Confusion struct {
	K      int
	Counts [][]int
}

// NewConfusion allocates a k-class confusion matrix.
func NewConfusion(k int) *Confusion {
	c := &Confusion{K: k, Counts: make([][]int, k)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, k)
	}
	return c
}

// Add records one observation.
func (c *Confusion) Add(actual, predicted int) {
	c.Counts[actual][predicted]++
}

// AddAll records a batch of observations; the slices must be equal length.
func (c *Confusion) AddAll(actual, predicted []int) {
	if len(actual) != len(predicted) {
		panic(fmt.Sprintf("metrics: %d actual vs %d predicted labels", len(actual), len(predicted)))
	}
	for i, a := range actual {
		c.Add(a, predicted[i])
	}
}

// Total returns the number of recorded observations.
func (c *Confusion) Total() int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// MulticlassAccuracy is the trace over the total.
func (c *Confusion) MulticlassAccuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	d := 0
	for i := 0; i < c.K; i++ {
		d += c.Counts[i][i]
	}
	return float64(d) / float64(n)
}

// BinaryCounts is the attack-vs-normal collapse of a confusion matrix:
// an attack is any class other than the normal class. TP = attacks
// classified as (any) attack; per the paper, a DoS record predicted as
// Probe still counts as a detected attack.
type BinaryCounts struct {
	TP, FP, TN, FN int
}

// Binary collapses the matrix treating class normalClass as "normal" and
// everything else as "attack".
func (c *Confusion) Binary(normalClass int) BinaryCounts {
	var b BinaryCounts
	for a := 0; a < c.K; a++ {
		for p := 0; p < c.K; p++ {
			n := c.Counts[a][p]
			actualAttack := a != normalClass
			predAttack := p != normalClass
			switch {
			case actualAttack && predAttack:
				b.TP += n
			case actualAttack && !predAttack:
				b.FN += n
			case !actualAttack && predAttack:
				b.FP += n
			default:
				b.TN += n
			}
		}
	}
	return b
}

// ACC is Eq. (3): (TP+TN) / (TP+TN+FP+FN).
func (b BinaryCounts) ACC() float64 {
	n := b.TP + b.TN + b.FP + b.FN
	if n == 0 {
		return 0
	}
	return float64(b.TP+b.TN) / float64(n)
}

// DR is Eq. (4), the detection rate (recall on attacks): TP / (TP+FN).
func (b BinaryCounts) DR() float64 {
	n := b.TP + b.FN
	if n == 0 {
		return 0
	}
	return float64(b.TP) / float64(n)
}

// FAR is Eq. (5), the false-alarm rate: FP / (FP+TN).
func (b BinaryCounts) FAR() float64 {
	n := b.FP + b.TN
	if n == 0 {
		return 0
	}
	return float64(b.FP) / float64(n)
}

// ClassReport is per-class precision/recall/F1 with support.
type ClassReport struct {
	Class     int
	Precision float64
	Recall    float64
	F1        float64
	Support   int
}

// PerClass computes a report for every class.
func (c *Confusion) PerClass() []ClassReport {
	out := make([]ClassReport, c.K)
	for k := 0; k < c.K; k++ {
		tp := c.Counts[k][k]
		fp, fn, support := 0, 0, 0
		for a := 0; a < c.K; a++ {
			if a != k {
				fp += c.Counts[a][k]
				fn += c.Counts[k][a]
			}
		}
		for _, v := range c.Counts[k] {
			support += v
		}
		r := ClassReport{Class: k, Support: support}
		if tp+fp > 0 {
			r.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			r.Recall = float64(tp) / float64(tp+fn)
		}
		if r.Precision+r.Recall > 0 {
			r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
		}
		out[k] = r
	}
	return out
}

// Summary bundles the three paper metrics for one evaluated design.
type Summary struct {
	Design string
	TP     int
	FP     int
	DR     float64 // percent
	ACC    float64 // percent
	FAR    float64 // percent
}

// Summarize produces a Summary row from a confusion matrix, with metrics
// expressed in percent as the paper's tables report them.
func Summarize(design string, c *Confusion, normalClass int) Summary {
	b := c.Binary(normalClass)
	return Summary{
		Design: design,
		TP:     b.TP,
		FP:     b.FP,
		DR:     b.DR() * 100,
		ACC:    b.ACC() * 100,
		FAR:    b.FAR() * 100,
	}
}

// FormatTable renders summaries in the paper's table layout
// (Design | DR% | ACC% | FAR%). The design column is 26 characters wide,
// or as wide as the longest name.
func FormatTable(title string, rows []Summary) string {
	width := 26
	for _, r := range rows {
		width = max(width, utf8.RuneCountInString(r.Design))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-*s %8s %8s %8s\n", width, "Design", "DR%", "ACC%", "FAR%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %8.2f %8.2f %8.2f\n", width, r.Design, r.DR, r.ACC, r.FAR)
	}
	return b.String()
}
