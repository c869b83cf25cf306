package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Encoder converts raw records into a dense numeric matrix: numeric
// features pass through, categorical features one-hot expand — the
// equivalent of pandas get_dummies the paper uses for Step 1 of
// preprocessing (§V-A).
type Encoder struct {
	schema Schema
	// catOffset[k] is the first encoded column of categorical feature k.
	catOffset []int
	// valueIdx[k][value] is the within-feature column of that value.
	valueIdx []map[string]int
	width    int
}

// NewEncoder builds an encoder for the schema.
func NewEncoder(schema Schema) *Encoder {
	e := &Encoder{
		schema:    schema,
		catOffset: make([]int, len(schema.Categorical)),
		valueIdx:  make([]map[string]int, len(schema.Categorical)),
	}
	off := len(schema.NumericNames)
	for k, c := range schema.Categorical {
		e.catOffset[k] = off
		idx := make(map[string]int, len(c.Values))
		for i, v := range c.Values {
			idx[v] = i
		}
		e.valueIdx[k] = idx
		off += len(c.Values)
	}
	e.width = off
	return e
}

// Width returns the encoded feature count.
func (e *Encoder) Width() int { return e.width }

// EncodeRecord writes one record into dst (length Width). Unknown
// categorical values leave their block all-zero.
func (e *Encoder) EncodeRecord(r *Record, dst []float64) {
	if len(dst) != e.width {
		panic(fmt.Sprintf("data: EncodeRecord dst length %d, want %d", len(dst), e.width))
	}
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, r.Numeric)
	for k, v := range r.Categorical {
		if i, ok := e.valueIdx[k][v]; ok {
			dst[e.catOffset[k]+i] = 1
		}
	}
}

// Encode converts a whole dataset into an (N, Width) matrix and its labels.
func (e *Encoder) Encode(d *Dataset) (*tensor.Tensor, []int) {
	x := tensor.New(d.Len(), e.width)
	y := make([]int, d.Len())
	for i := range d.Records {
		e.EncodeRecord(&d.Records[i], x.Row(i))
		y[i] = d.Records[i].Label
	}
	return x, y
}

// Scaler standardizes features to zero mean and unit variance — Step 2 of
// the paper's preprocessing. Constant columns are left unscaled (std
// clamped to 1) so one-hot columns that never vary don't blow up.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-column mean and standard deviation of x.
func FitScaler(x *tensor.Tensor) *Scaler {
	rows, cols := x.Dim(0), x.Dim(1)
	s := &Scaler{Mean: make([]float64, cols), Std: make([]float64, cols)}
	if rows == 0 {
		for c := range s.Std {
			s.Std[c] = 1
		}
		return s
	}
	for r := 0; r < rows; r++ {
		row := x.Row(r)
		for c, v := range row {
			s.Mean[c] += v
		}
	}
	inv := 1.0 / float64(rows)
	for c := range s.Mean {
		s.Mean[c] *= inv
	}
	for r := 0; r < rows; r++ {
		row := x.Row(r)
		for c, v := range row {
			d := v - s.Mean[c]
			s.Std[c] += d * d
		}
	}
	for c := range s.Std {
		s.Std[c] = math.Sqrt(s.Std[c] * inv)
		if s.Std[c] < 1e-9 {
			s.Std[c] = 1
		}
	}
	return s
}

// Transform standardizes x in place using the fitted moments.
func (s *Scaler) Transform(x *tensor.Tensor) {
	rows, cols := x.Dim(0), x.Dim(1)
	if cols != len(s.Mean) {
		panic(fmt.Sprintf("data: Scaler fitted on %d columns, got %d", len(s.Mean), cols))
	}
	for r := 0; r < rows; r++ {
		row := x.Row(r)
		for c := range row {
			row[c] = (row[c] - s.Mean[c]) / s.Std[c]
		}
	}
}

// TransformRecord standardizes a single encoded row in place.
func (s *Scaler) TransformRecord(row []float64) {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("data: Scaler fitted on %d columns, got %d", len(s.Mean), len(row)))
	}
	for c := range row {
		row[c] = (row[c] - s.Mean[c]) / s.Std[c]
	}
}

// Pipeline bundles the fitted encoder and scaler so the exact training
// transform can be replayed on live traffic (used by the nids package).
type Pipeline struct {
	Enc    *Encoder
	Scaler *Scaler
}

// Preprocess runs the paper's full preprocessing on a dataset: one-hot
// encode, then fit a scaler on the encoded matrix and standardize it.
// It returns the matrix, labels and the fitted pipeline.
func Preprocess(d *Dataset) (*tensor.Tensor, []int, *Pipeline) {
	enc := NewEncoder(d.Schema)
	x, y := enc.Encode(d)
	sc := FitScaler(x)
	sc.Transform(x)
	return x, y, &Pipeline{Enc: enc, Scaler: sc}
}

// Width returns the encoded feature width the pipeline produces.
func (p *Pipeline) Width() int { return p.Enc.Width() }

// Apply preprocesses a single record with the fitted pipeline, returning
// its standardized feature vector.
func (p *Pipeline) Apply(r *Record) []float64 {
	row := make([]float64, p.Enc.Width())
	p.ApplyInto(r, row)
	return row
}

// ApplyInto preprocesses r into row (length Width) without allocating —
// the hot-path variant used by batched scoring.
func (p *Pipeline) ApplyInto(r *Record, row []float64) {
	p.Enc.EncodeRecord(r, row)
	p.Scaler.TransformRecord(row)
}
