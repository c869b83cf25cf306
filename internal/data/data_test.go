package data

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func testSchema() Schema {
	return Schema{
		NumericNames: []string{"duration", "bytes"},
		Categorical: []CategoricalFeature{
			{Name: "proto", Values: []string{"tcp", "udp", "icmp"}},
			{Name: "flag", Values: []string{"SF", "S0"}},
		},
		ClassNames: []string{"normal", "dos", "probe"},
	}
}

func testDataset() *Dataset {
	return &Dataset{
		Schema: testSchema(),
		Records: []Record{
			{Numeric: []float64{1.5, 100}, Categorical: []string{"tcp", "SF"}, Label: 0},
			{Numeric: []float64{0.1, 9000}, Categorical: []string{"udp", "S0"}, Label: 1},
			{Numeric: []float64{2.0, 50}, Categorical: []string{"icmp", "SF"}, Label: 2},
			{Numeric: []float64{0.4, 700}, Categorical: []string{"tcp", "S0"}, Label: 1},
		},
	}
}

func TestSchemaEncodedWidth(t *testing.T) {
	s := testSchema()
	if got := s.EncodedWidth(); got != 2+3+2 {
		t.Fatalf("EncodedWidth = %d, want 7", got)
	}
}

// TestSchemaSameFeatures pins the feature-layout comparison used to gate
// live-slot model swaps: identical layouts match, count-preserving
// mutations (renamed columns, swapped vocabulary entries) do not, and
// class renames are ignored.
func TestSchemaSameFeatures(t *testing.T) {
	base := testSchema()
	if !base.SameFeatures(testSchema()) {
		t.Fatal("identical schemas reported different")
	}
	relabeled := testSchema()
	relabeled.ClassNames = []string{"benign", "dos", "probe", "r2l"}
	if !base.SameFeatures(relabeled) {
		t.Fatal("class rename must not change the feature layout")
	}
	mutations := []func(*Schema){
		func(s *Schema) { s.NumericNames[1] = "packets" },
		func(s *Schema) { s.NumericNames = s.NumericNames[:1] },
		func(s *Schema) { s.Categorical[0].Name = "protocol" },
		func(s *Schema) { s.Categorical[0].Values[2] = "sctp" },
		func(s *Schema) { s.Categorical[1].Values = []string{"S0", "SF"} },
		func(s *Schema) { s.Categorical = s.Categorical[:1] },
	}
	for i, mutate := range mutations {
		m := testSchema()
		mutate(&m)
		if base.SameFeatures(m) {
			t.Fatalf("mutation %d preserved SameFeatures: %+v", i, m)
		}
	}
}

func TestSchemaValidateCatchesDuplicates(t *testing.T) {
	s := testSchema()
	s.NumericNames = append(s.NumericNames, "duration")
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate numeric name not caught")
	}
	s2 := testSchema()
	s2.Categorical[0].Values = []string{"tcp", "tcp"}
	if err := s2.Validate(); err == nil {
		t.Fatal("duplicate categorical value not caught")
	}
	s3 := testSchema()
	s3.ClassNames = []string{"only"}
	if err := s3.Validate(); err == nil {
		t.Fatal("single class not caught")
	}
}

func TestDatasetValidate(t *testing.T) {
	ds := testDataset()
	if err := ds.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	ds.Records[0].Label = 7
	if err := ds.Validate(); err == nil {
		t.Fatal("out-of-range label not caught")
	}
	ds2 := testDataset()
	ds2.Records[1].Numeric = []float64{1}
	if err := ds2.Validate(); err == nil {
		t.Fatal("wrong numeric width not caught")
	}
}

func TestClassCounts(t *testing.T) {
	got := testDataset().ClassCounts()
	want := []int{1, 2, 1}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("ClassCounts = %v, want %v", got, want)
		}
	}
}

func TestEncoderOneHotLayout(t *testing.T) {
	ds := testDataset()
	enc := NewEncoder(ds.Schema)
	if enc.Width() != 7 {
		t.Fatalf("Width = %d, want 7", enc.Width())
	}
	x, y := enc.Encode(ds)
	if x.Dim(0) != 4 || x.Dim(1) != 7 {
		t.Fatalf("encoded shape %v, want [4 7]", x.Shape())
	}
	// Record 0: tcp → col 2, SF → col 5.
	wantRow0 := []float64{1.5, 100, 1, 0, 0, 1, 0}
	for c, w := range wantRow0 {
		if x.At(0, c) != w {
			t.Fatalf("row 0 = %v, want %v", x.Row(0), wantRow0)
		}
	}
	// Record 1: udp → col 3, S0 → col 6.
	if x.At(1, 3) != 1 || x.At(1, 6) != 1 || x.At(1, 2) != 0 {
		t.Fatalf("row 1 one-hot wrong: %v", x.Row(1))
	}
	if y[1] != 1 || y[3] != 1 {
		t.Fatalf("labels = %v", y)
	}
}

func TestEncoderUnknownCategoryIsAllZeros(t *testing.T) {
	enc := NewEncoder(testSchema())
	r := Record{Numeric: []float64{1, 2}, Categorical: []string{"gre", "SF"}}
	row := make([]float64, enc.Width())
	enc.EncodeRecord(&r, row)
	if row[2] != 0 || row[3] != 0 || row[4] != 0 {
		t.Fatalf("unknown category should leave block zero: %v", row)
	}
	if row[5] != 1 {
		t.Fatalf("known category lost: %v", row)
	}
}

func TestScalerStandardizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 7, 3, 500, 4)
	s := FitScaler(x)
	s.Transform(x)
	for c := 0; c < 4; c++ {
		mean, sq := 0.0, 0.0
		for r := 0; r < 500; r++ {
			v := x.At(r, c)
			mean += v
			sq += v * v
		}
		mean /= 500
		std := math.Sqrt(sq/500 - mean*mean)
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v after scaling", c, mean)
		}
		if math.Abs(std-1) > 1e-9 {
			t.Fatalf("column %d std %v after scaling", c, std)
		}
	}
}

func TestScalerConstantColumnSafe(t *testing.T) {
	x := tensor.New(10, 2)
	for r := 0; r < 10; r++ {
		x.Set(5, r, 0) // constant column
		x.Set(float64(r), r, 1)
	}
	s := FitScaler(x)
	s.Transform(x)
	if !x.AllFinite() {
		t.Fatal("constant column produced non-finite values")
	}
	if x.At(0, 0) != 0 {
		t.Fatalf("constant column should center to 0, got %v", x.At(0, 0))
	}
}

func TestScalerTransformRecordMatchesMatrix(t *testing.T) {
	ds := testDataset()
	x, _, pipe := Preprocess(ds)
	row := pipe.Apply(&ds.Records[2])
	for c := range row {
		if math.Abs(row[c]-x.At(2, c)) > 1e-12 {
			t.Fatalf("pipeline single-record transform diverges at col %d: %v vs %v", c, row[c], x.At(2, c))
		}
	}
}

func TestKFoldPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k := 103, 10
	// One class: the stratified split is the plain k-fold.
	folds := StratifiedKFold(rng, make([]int, n), k)
	if len(folds) != k {
		t.Fatalf("got %d folds, want %d", len(folds), k)
	}
	seen := make([]int, n)
	for _, f := range folds {
		if len(f.Train)+len(f.Test) != n {
			t.Fatalf("fold sizes %d+%d != %d", len(f.Train), len(f.Test), n)
		}
		for _, i := range f.Test {
			seen[i]++
		}
		// No overlap between train and test.
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatalf("index %d in both train and test", i)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears in %d test folds, want 1", i, c)
		}
	}
}

func TestStratifiedKFoldPreservesRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels := make([]int, 1000)
	for i := range labels {
		switch {
		case i < 700:
			labels[i] = 0
		case i < 950:
			labels[i] = 1
		default:
			labels[i] = 2
		}
	}
	folds := StratifiedKFold(rng, labels, 10)
	for fi, f := range folds {
		counts := [3]int{}
		for _, i := range f.Test {
			counts[labels[i]]++
		}
		if counts[0] != 70 || counts[1] != 25 || counts[2] != 5 {
			t.Fatalf("fold %d class counts %v, want [70 25 5]", fi, counts)
		}
	}
}

func TestStratifiedKFoldEveryIndexTestedOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		folds := StratifiedKFold(rng, labels, 5)
		seen := make([]int, n)
		for _, fd := range folds {
			for _, i := range fd.Test {
				seen[i]++
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 2
	}
	f := TrainTestSplit(rng, labels, 0.2)
	if len(f.Test) != 20 || len(f.Train) != 80 {
		t.Fatalf("split sizes %d/%d, want 80/20", len(f.Train), len(f.Test))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := testDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, ds.Schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), ds.Len())
	}
	for i := range ds.Records {
		a, b := ds.Records[i], got.Records[i]
		if a.Label != b.Label {
			t.Fatalf("record %d label %d vs %d", i, a.Label, b.Label)
		}
		for j := range a.Numeric {
			if a.Numeric[j] != b.Numeric[j] {
				t.Fatalf("record %d numeric %d differs", i, j)
			}
		}
		for j := range a.Categorical {
			if a.Categorical[j] != b.Categorical[j] {
				t.Fatalf("record %d categorical %d differs", i, j)
			}
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	buf := bytes.NewBufferString("x,y,label\n1,2,normal\n")
	if _, err := ReadCSV(buf, testSchema()); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsUnknownClass(t *testing.T) {
	ds := testDataset()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	s := buf.String()
	s = s[:len(s)-len("dos\n")] + "alien\n"
	if _, err := ReadCSV(bytes.NewBufferString(s), ds.Schema); err == nil {
		t.Fatal("unknown class accepted")
	}
}
