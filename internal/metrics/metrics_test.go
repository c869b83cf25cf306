package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionAddAndTotal(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(2, 2)
	if c.Total() != 3 {
		t.Fatalf("Total = %d, want 3", c.Total())
	}
	if c.Counts[0][1] != 1 {
		t.Fatalf("Counts[0][1] = %d, want 1", c.Counts[0][1])
	}
}

func TestAddAllMismatchedPanics(t *testing.T) {
	c := NewConfusion(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched AddAll did not panic")
		}
	}()
	c.AddAll([]int{0, 1}, []int{0})
}

func TestMulticlassAccuracy(t *testing.T) {
	c := NewConfusion(2)
	c.AddAll([]int{0, 0, 1, 1}, []int{0, 1, 1, 1})
	if got := c.MulticlassAccuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.75", got)
	}
}

func TestBinaryCollapse(t *testing.T) {
	// Classes: 0 = normal, 1 = dos, 2 = probe.
	c := NewConfusion(3)
	c.Add(1, 1) // attack detected → TP
	c.Add(1, 2) // dos predicted probe: still an attack prediction → TP
	c.Add(2, 0) // attack missed → FN
	c.Add(0, 0) // normal passed → TN
	c.Add(0, 2) // false alarm → FP
	b := c.Binary(0)
	if b.TP != 2 || b.FN != 1 || b.TN != 1 || b.FP != 1 {
		t.Fatalf("binary = %+v, want TP=2 FN=1 TN=1 FP=1", b)
	}
}

func TestPaperMetricFormulas(t *testing.T) {
	b := BinaryCounts{TP: 80, FN: 20, FP: 5, TN: 95}
	if got := b.DR(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("DR = %v, want 0.8", got)
	}
	if got := b.FAR(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("FAR = %v, want 0.05", got)
	}
	if got := b.ACC(); math.Abs(got-0.875) > 1e-12 {
		t.Fatalf("ACC = %v, want 0.875", got)
	}
}

func TestMetricsEmptyDenominators(t *testing.T) {
	var b BinaryCounts
	if b.ACC() != 0 || b.DR() != 0 || b.FAR() != 0 {
		t.Fatal("empty counts should yield zero metrics, not NaN")
	}
}

func TestPerClassReport(t *testing.T) {
	c := NewConfusion(2)
	// class 0: 3 correct, 1 predicted as 1; class 1: 2 correct, 2 as 0.
	c.AddAll(
		[]int{0, 0, 0, 0, 1, 1, 1, 1},
		[]int{0, 0, 0, 1, 1, 1, 0, 0},
	)
	rep := c.PerClass()
	// class 0: precision 3/5, recall 3/4.
	if math.Abs(rep[0].Precision-0.6) > 1e-12 || math.Abs(rep[0].Recall-0.75) > 1e-12 {
		t.Fatalf("class 0 report %+v", rep[0])
	}
	if rep[0].Support != 4 || rep[1].Support != 4 {
		t.Fatalf("supports %d/%d, want 4/4", rep[0].Support, rep[1].Support)
	}
	// F1 harmonic mean check for class 0: 2·0.6·0.75/1.35.
	wantF1 := 2 * 0.6 * 0.75 / 1.35
	if math.Abs(rep[0].F1-wantF1) > 1e-12 {
		t.Fatalf("class 0 F1 = %v, want %v", rep[0].F1, wantF1)
	}
}

func TestSummarizePercentScale(t *testing.T) {
	c := NewConfusion(2)
	c.AddAll([]int{1, 1, 1, 1, 0, 0, 0, 0}, []int{1, 1, 1, 0, 0, 0, 0, 1})
	s := Summarize("test", c, 0)
	if math.Abs(s.DR-75) > 1e-9 {
		t.Fatalf("DR%% = %v, want 75", s.DR)
	}
	if math.Abs(s.FAR-25) > 1e-9 {
		t.Fatalf("FAR%% = %v, want 25", s.FAR)
	}
	if s.TP != 3 || s.FP != 1 {
		t.Fatalf("TP/FP = %d/%d, want 3/1", s.TP, s.FP)
	}
}

func TestFormatTableContainsRows(t *testing.T) {
	rows := []Summary{{Design: "Pelican", DR: 97.75, ACC: 86.64, FAR: 1.30}}
	out := FormatTable("TABLE V", rows)
	if !strings.Contains(out, "Pelican") || !strings.Contains(out, "86.64") {
		t.Fatalf("table missing content:\n%s", out)
	}
	if want := "Pelican                       97.75    86.64     1.30\n"; !strings.HasSuffix(out, want) {
		t.Fatalf("short names pad to 26 columns:\n%s", out)
	}

	// A name longer than 26 characters widens the column for every row,
	// so each number stays under its header.
	rows = append(rows, Summary{Design: "signatures vs attack variants", DR: 33.80, ACC: 54.17, FAR: 16.33})
	out = FormatTable("EXT", rows)
	want := "EXT\n" +
		"Design                             DR%     ACC%     FAR%\n" +
		"Pelican                          97.75    86.64     1.30\n" +
		"signatures vs attack variants    33.80    54.17    16.33\n"
	if out != want {
		t.Fatalf("got\n%s\nwant\n%s", out, want)
	}
}

// TestPropBinaryCountsConsistent: collapsing preserves totals and metric
// bounds for any confusion matrix.
func TestPropBinaryCountsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		c := NewConfusion(k)
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			c.Add(rng.Intn(k), rng.Intn(k))
		}
		b := c.Binary(rng.Intn(k))
		if b.TP+b.FP+b.TN+b.FN != n {
			return false
		}
		for _, m := range []float64{b.ACC(), b.DR(), b.FAR()} {
			if m < 0 || m > 1 || math.IsNaN(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropPerClassRecallMatchesDiagonal: recall·support == diagonal count.
func TestPropPerClassRecallMatchesDiagonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		c := NewConfusion(k)
		for i := 0; i < 200; i++ {
			c.Add(rng.Intn(k), rng.Intn(k))
		}
		for _, r := range c.PerClass() {
			got := r.Recall * float64(r.Support)
			if math.Abs(got-float64(c.Counts[r.Class][r.Class])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
