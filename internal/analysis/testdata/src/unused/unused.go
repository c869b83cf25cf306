// Package unused is the golden input for the unused analyzer: exported
// names with and without a caller, and Config fields with and without a
// setter. Its neighbours are unused_test.go, export_test.go and
// unused_ext_test.go (this package's own tests, in-package and external,
// which do not count as callers) and package user (another package, whose
// code and tests do).
package unused

import "fmt"

// Called has a caller in this package's production code.
func Called() int { return 1 }

func init() { _ = Called() + int(total([]Shape{Square{Side: 1}})) }

// TestOnly is called by unused_test.go and nothing else.
func TestOnly() int { return 2 } // want "func TestOnly is referenced only by its own package's tests"

// Dead is called by nothing.
func Dead() {} // want "func Dead is referenced by nothing"

// Recursive is its own only caller, which is no caller.
func Recursive(n int) int { // want "func Recursive is referenced by nothing"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// ExternalTestOnly is called by unused_ext_test.go, the external test
// package, and nothing else: that is this package's own test too.
func ExternalTestOnly() int { return doubled(2) } // want "func ExternalTestOnly is referenced only by its own package's tests"

func doubled(n int) int { return 2 * n }

// CrossTested is called only by package user's test: another package's
// test is a real caller.
func CrossTested() int { return 3 }

// Threshold is read by unused_test.go only.
const Threshold = 6 // want "const Threshold is referenced only by its own package's tests"

// Fixture is built by unused_test.go only; its own method's receiver does
// not count as a reference to it.
type Fixture struct{} // want "type Fixture is referenced only by its own package's tests"

// Reset is called by unused_test.go only.
func (f *Fixture) Reset() {} // want "method Fixture.Reset is referenced only by its own package's tests"

// Shape is an interface production code mentions.
type Shape interface{ Area() float64 }

// Square satisfies Shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area is never called by name: its caller is the Shape interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is never called by name either: importing fmt mentions
// fmt.Stringer.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Perimeter satisfies no interface and is called by nothing.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "method Square.Perimeter is referenced by nothing"

// Diagonal satisfies no interface and is called by unused_test.go only.
func (s Square) Diagonal() float64 { return 1.41421356 * s.Side } // want "method Square.Diagonal is referenced only by its own package's tests"

func total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// ServeConfig stands in for a serving-stack Config struct.
type ServeConfig struct {
	// Replicas is a key in package user's composite literal.
	Replicas int
	// Assigned is assigned, and Flagged has its address taken, by package
	// user — the shape of flag.IntVar(&cfg.Flagged, ...).
	Assigned int
	Flagged  int
	// Knob is set by withDefaults below, by this package's test and by
	// package user's test: no binary can turn it.
	Knob int // want "Config field ServeConfig.Knob is set by no non-test code outside its package"
	// unexported fields are the package's own business.
	hidden int
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Knob == 0 {
		c.Knob = 8
	}
	c.hidden = c.Knob
	return c
}

// Options is not a Config struct: its fields are not held to the rule.
type Options struct{ Verbose bool }

var _ = Options{}.Verbose || ServeConfig{}.withDefaults().hidden > 0
