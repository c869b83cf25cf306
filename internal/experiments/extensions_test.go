package experiments

import (
	"strings"
	"testing"
)

func TestRunAnomalyComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rows, err := RunAnomalyComparison(SmokeProfile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (gaussian, knn, supervised)", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Design] = true
	}
	for _, want := range []string{"anomaly: gaussian-profile", "anomaly: knn-5", "supervised: LuNet"} {
		if !names[want] {
			t.Fatalf("missing row %q in %v", want, names)
		}
	}
}

func TestRunSignatureStudySmoke(t *testing.T) {
	rows, err := RunSignatureStudy(SmokeProfile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	known, variants := rows[0], rows[1]
	if !strings.Contains(known.Design, "known") || !strings.Contains(variants.Design, "variants") {
		t.Fatalf("unexpected row names: %q, %q", known.Design, variants.Design)
	}
	// The §VI claim: signatures degrade on variants. (Smoke-scale noise can
	// be large, so only require non-trivial detection on known attacks.)
	if known.DR <= 0 {
		t.Fatalf("signature engine detected nothing on known attacks: %+v", known)
	}
}

func TestRunAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rows, err := RunAblation(SmokeProfile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants) {
		t.Fatalf("got %d rows, want %d", len(rows), len(AblationVariants))
	}
	for _, r := range rows {
		if r.ACC < 0 || r.ACC > 100 {
			t.Fatalf("%s: ACC %v out of range", r.Design, r.ACC)
		}
	}
}

func TestRunTable5ExtendedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	res, err := RunTable5Extended(SmokeProfile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(Table5XDesigns) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(Table5XDesigns))
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r.Design] = true
	}
	for _, want := range []string{"Logistic Regression", "Naive Bayes", "k-NN (k=5)"} {
		if !names[want] {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
	if out := FormatTable5Extended(res); !strings.Contains(out, "TABLE Vx") {
		t.Fatalf("bad formatting:\n%s", out)
	}
}

func TestRunDriftStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	res, err := RunDriftStudy(SmokeProfile(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(DriftMixes) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(DriftMixes))
	}
	for _, pt := range res.Points {
		total := pt.Supervised.TP + pt.Supervised.FP + pt.Supervised.TN + pt.Supervised.FN
		if total == 0 {
			t.Fatalf("drift point %v evaluated nothing", pt.Mix)
		}
	}
	// §VI "Reason two": a fixed normal profile goes stale, so from mix 0
	// to mix 1 the anomaly detector's FAR rises by more than the
	// supervised model's (+98.2 vs +70.0 points at seed 1).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	anoRise := last.Anomaly.FAR() - first.Anomaly.FAR()
	supRise := last.Supervised.FAR() - first.Supervised.FAR()
	if anoRise <= supRise {
		t.Fatalf("anomaly FAR rose %.1f points, supervised %.1f: want the anomaly profile to degrade faster",
			anoRise*100, supRise*100)
	}
	if out := FormatDrift(res); !strings.Contains(out, "DRIFT") {
		t.Fatalf("bad formatting:\n%s", out)
	}
}
