// Package analysis is pelican-vet's engine: a stdlib-only static-analysis
// driver (go/parser + go/ast + go/types, no external dependencies — the
// module's zero-dependency stance extends to its tooling) plus the
// project-specific analyzers that machine-check the invariants this
// codebase's performance and robustness story depends on:
//
//   - noalloc:   functions annotated //pelican:noalloc must stay free of
//     steady-state allocating constructs (the hot-path contract
//     from the allocation-free training/inference work).
//   - lockscope: no blocking operation while holding an exclusive mutex in
//     the serving-plane packages ("the lock covers the network
//     pass only").
//   - ctxflow:   request-path code must thread context.Context — no fresh
//     Background/TODO contexts, no dropped ctx parameters, no
//     goroutines without cancellation/completion discipline.
//   - unused:    every exported name under internal/ has a caller other
//     than its own package's tests, and every exported field of
//     a serving-stack Config struct is set by some binary.
//
// Runtime tests only catch an invariant violation on the paths they happen
// to exercise; these analyzers check every path on every build, which is
// what lets the alloc-budget and race tests act as a second line of
// defense instead of the only one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package the analyzers run over.
type Package struct {
	// Path is the import path ("repro/internal/serve").
	Path string
	// Dir is the directory the package's files were parsed from.
	Dir string
	// Fset positions every node in Syntax.
	Fset *token.FileSet
	// Syntax holds the parsed files (tests excluded), comments included.
	Syntax []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the use/def/type maps the analyzers query.
	Info *types.Info
	// Tests holds the directory's _test.go files as packages of their own
	// (in-package tests, then an external foo_test package), set by
	// Loader.Load on the packages it was asked for. Only unused reads it:
	// test files assert on hot paths, they are not hot paths.
	Tests []*Package
}

// Diagnostic is one analyzer finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package plus the report sink.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(newDiagnostic(p.analyzer.Name, p.Pkg.Fset.Position(pos), format, args...))
}

// newDiagnostic builds a finding at an already-resolved position, which is
// what a Finish hook holds once the packages are gone.
func newDiagnostic(analyzer string, pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
		Analyzer: analyzer, Message: fmt.Sprintf(format, args...),
	}
}

// Analyzer is one named rule set.
type Analyzer struct {
	// Name is the flag / diagnostic prefix ("noalloc").
	Name string
	// Doc is the one-line description shown by pelican-vet -help.
	Doc string
	// Scope restricts which packages the driver applies the analyzer to:
	// a package is in scope when its import path contains any of these
	// substrings. Empty means every package. Testdata packages (synthetic
	// vet.test/... paths, only ever loaded explicitly) are always in
	// scope, so `pelican-vet <testdata dir>` demonstrates every analyzer.
	Scope []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// Finish, when set, runs once after every in-scope package has been
	// visited — the hook a whole-module analyzer (unused) uses to report
	// on state accumulated across packages.
	Finish func(report func(Diagnostic))
}

// InScope reports whether the analyzer applies to the given package path.
func (a *Analyzer) InScope(pkgPath string) bool {
	if len(a.Scope) == 0 || strings.HasPrefix(pkgPath, "vet.test/") {
		return true
	}
	for _, s := range a.Scope {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{NoAlloc(), LockScope(), CtxFlow(), Unused()}
}

// Run applies each analyzer to each package it is in scope for and returns
// the findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			if !a.InScope(pkg.Path) {
				continue
			}
			RunOne(a, pkg, func(d Diagnostic) { diags = append(diags, d) })
		}
		if a.Finish != nil {
			a.Finish(func(d Diagnostic) { diags = append(diags, d) })
		}
	}
	Sort(diags)
	return diags
}

// RunOne applies a single analyzer to a single package, ignoring scope —
// the entry the golden-file tests use on testdata packages.
func RunOne(a *Analyzer, pkg *Package, report func(Diagnostic)) {
	a.Run(&Pass{Pkg: pkg, analyzer: a, report: report})
}

// Sort orders diagnostics by file, line, column, analyzer.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
