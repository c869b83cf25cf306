// Package data provides the dataset substrate for the reproduction: raw
// records with mixed numeric/categorical features, the one-hot encoder
// (pandas get_dummies equivalent), standardization, stratified k-fold
// cross-validation, and CSV import/export — the full preprocessing pipeline
// of paper §V-A.
package data

import (
	"fmt"
)

// CategoricalFeature names a categorical column and enumerates its
// vocabulary. Values outside the vocabulary encode as all-zeros (the
// get_dummies behaviour for unseen categories at transform time).
type CategoricalFeature struct {
	Name   string
	Values []string
}

// Schema describes a dataset's raw feature layout and its classes. Class 0
// is, by convention throughout this repository, the Normal (non-attack)
// class.
type Schema struct {
	NumericNames []string
	Categorical  []CategoricalFeature
	ClassNames   []string
}

// NumNumeric returns the count of numeric features.
func (s Schema) NumNumeric() int { return len(s.NumericNames) }

// EncodedWidth returns the feature count after one-hot encoding: numeric
// features plus the sum of categorical vocabulary sizes.
func (s Schema) EncodedWidth() int {
	w := len(s.NumericNames)
	for _, c := range s.Categorical {
		w += len(c.Values)
	}
	return w
}

// NumClasses returns the number of classes.
func (s Schema) NumClasses() int { return len(s.ClassNames) }

// SameFeatures reports whether two schemas describe the identical feature
// layout: the same numeric feature names in the same order, and the same
// categorical features with identical vocabularies in the same order. Two
// schemas that merely agree on feature *counts* can still one-hot encode
// the same record to different vectors (renamed columns, re-ordered or
// re-fitted vocabularies), so shape checks that gate model swaps must use
// this, not NumNumeric/len(Categorical). Class names are deliberately not
// compared: a retrain may relabel classes without changing how records
// encode.
func (s Schema) SameFeatures(o Schema) bool {
	if len(s.NumericNames) != len(o.NumericNames) || len(s.Categorical) != len(o.Categorical) {
		return false
	}
	for i, n := range s.NumericNames {
		if o.NumericNames[i] != n {
			return false
		}
	}
	for i, c := range s.Categorical {
		oc := o.Categorical[i]
		if c.Name != oc.Name || len(c.Values) != len(oc.Values) {
			return false
		}
		for j, v := range c.Values {
			if oc.Values[j] != v {
				return false
			}
		}
	}
	return true
}

// Validate checks internal consistency of the schema.
func (s Schema) Validate() error {
	if len(s.ClassNames) < 2 {
		return fmt.Errorf("schema needs at least 2 classes, has %d", len(s.ClassNames))
	}
	seen := make(map[string]bool, len(s.NumericNames))
	for _, n := range s.NumericNames {
		if seen[n] {
			return fmt.Errorf("duplicate numeric feature %q", n)
		}
		seen[n] = true
	}
	for _, c := range s.Categorical {
		if seen[c.Name] {
			return fmt.Errorf("duplicate feature %q", c.Name)
		}
		seen[c.Name] = true
		if len(c.Values) == 0 {
			return fmt.Errorf("categorical feature %q has empty vocabulary", c.Name)
		}
		vseen := make(map[string]bool, len(c.Values))
		for _, v := range c.Values {
			if vseen[v] {
				return fmt.Errorf("categorical feature %q has duplicate value %q", c.Name, v)
			}
			vseen[v] = true
		}
	}
	return nil
}

// Record is one raw traffic record: numeric feature values, one value per
// categorical feature, and a class label index into Schema.ClassNames.
type Record struct {
	Numeric     []float64
	Categorical []string
	Label       int
}

// Dataset couples a schema with its records.
type Dataset struct {
	Schema  Schema
	Records []Record
}

// Len returns the record count.
func (d *Dataset) Len() int { return len(d.Records) }

// Labels returns a fresh slice of all record labels.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Records))
	for i, r := range d.Records {
		out[i] = r.Label
	}
	return out
}

// ClassCounts returns the number of records per class.
func (d *Dataset) ClassCounts() []int {
	out := make([]int, d.Schema.NumClasses())
	for _, r := range d.Records {
		if r.Label >= 0 && r.Label < len(out) {
			out[r.Label]++
		}
	}
	return out
}

// Validate checks every record against the schema.
func (d *Dataset) Validate() error {
	if err := d.Schema.Validate(); err != nil {
		return err
	}
	nn, nc, k := d.Schema.NumNumeric(), len(d.Schema.Categorical), d.Schema.NumClasses()
	for i, r := range d.Records {
		if len(r.Numeric) != nn {
			return fmt.Errorf("record %d: %d numeric values, schema has %d", i, len(r.Numeric), nn)
		}
		if len(r.Categorical) != nc {
			return fmt.Errorf("record %d: %d categorical values, schema has %d", i, len(r.Categorical), nc)
		}
		if r.Label < 0 || r.Label >= k {
			return fmt.Errorf("record %d: label %d out of range [0, %d)", i, r.Label, k)
		}
	}
	return nil
}
