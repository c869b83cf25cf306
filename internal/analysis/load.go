package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of one Go module without shelling
// out to the go tool or importing anything beyond the standard library.
// Imports inside the module resolve by walking the module tree from go.mod;
// standard-library imports resolve through go/importer's source importer
// (which type-checks GOROOT packages from source, cached per Loader).
type Loader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	modPath string
	modRoot string
	// typed caches packages by import path so shared deps check once.
	typed map[string]*Package
	// checking guards against import cycles inside the module.
	checking map[string]bool
}

// NewLoader finds the enclosing module of dir (walking up to go.mod) and
// returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		modPath:  modPath,
		modRoot:  root,
		typed:    map[string]*Package{},
		checking: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`)), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves patterns ("./...", "./internal/serve", import paths) into
// parsed, type-checked packages, each with its _test.go files checked apart
// in Package.Tests. Directories without .go files are skipped; testdata,
// hidden, and underscore-prefixed directories are never walked.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walk(l.modRoot, addDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := l.resolveDir(strings.TrimSuffix(pat, "/..."))
			if err := l.walk(base, addDir); err != nil {
				return nil, err
			}
		default:
			addDir(l.resolveDir(pat))
		}
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		if !hasGoFiles(dir) {
			continue
		}
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("analysis: no Go packages matched %v", patterns)
	}
	// Tests load after every target is checked and cached: a test may
	// import a package that imports the package under test.
	for _, pkg := range pkgs {
		if err := l.loadTests(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// resolveDir maps a pattern to a directory: module-relative import paths
// and ./-relative paths both land inside the module root.
func (l *Loader) resolveDir(pat string) string {
	if pat == l.modPath {
		return l.modRoot
	}
	if rest, ok := strings.CutPrefix(pat, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, rest)
	}
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	return filepath.Join(l.modRoot, pat)
}

// walk collects candidate package directories under base.
func (l *Loader) walk(base string, add func(string)) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		add(path)
		return nil
	})
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir. Directories inside
// the module get their real import path (so intra-module imports of them
// are shared); directories outside (testdata trees) are checked as
// stand-alone packages that may import the stdlib only.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	pkgPath := l.importPathFor(dir)
	if pkg, ok := l.typed[pkgPath]; ok {
		return pkg, nil
	}
	return l.check(pkgPath, dir)
}

// importPathFor maps a directory to its import path. Directories outside
// the module root get a synthetic testdata path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") || strings.Contains(rel, "testdata") {
		return "vet.test/" + filepath.Base(dir)
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, everything else falls through to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.typed[path]; ok {
		return pkg.Types, nil // includes testdata packages loaded earlier
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.modRoot, rel))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// check parses and type-checks the non-test files of one directory. A
// directory holding only tests yields an empty package for them to hang off.
func (l *Loader) check(pkgPath, dir string) (*Package, error) {
	if l.checking[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.checking[pkgPath] = true
	defer func() { l.checking[pkgPath] = false }()

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && !hasGoFiles(dir) {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.typeCheck(l, pkgPath, dir, nil, files)
	if err != nil {
		return nil, err
	}
	l.typed[pkgPath] = pkg
	return pkg, nil
}

// parseDir parses dir's _test.go files (tests) or its other .go files,
// keeping only those the go tool would build for this GOOS/GOARCH (file
// name suffixes and //go:build lines), so that per-architecture files
// declaring the same names do not collide.
func (l *Loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck checks seen+own as one package whose Syntax is own alone: a
// test unit is checked together with the production files it sees into,
// but the analyzers walk only the files it owns. imp resolves its imports.
func (l *Loader) typeCheck(imp types.Importer, pkgPath, dir string, seen, own []*ast.File) (*Package, error) {
	files := append(append([]*ast.File(nil), seen...), own...)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Package{Path: pkgPath, Dir: dir, Fset: l.fset, Syntax: own, Types: tpkg, Info: info}, nil
}

// loadTests type-checks pkg's _test.go files into pkg.Tests, as go test
// builds them: the in-package ones together with pkg.Syntax (they see
// unexported names), and an external foo_test package against that test
// build of pkg, so it sees what an in-package export_test.go file exports.
// The production package is never re-exported from here, so the four
// analyzers that police production code do not see test files.
func (l *Loader) loadTests(pkg *Package) error {
	files, err := l.parseDir(pkg.Dir, true)
	if err != nil {
		return err
	}
	var internal, external []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			internal = append(internal, f)
		}
	}
	pkg.Tests = nil
	var imp types.Importer = l
	if len(internal) > 0 {
		unit, err := l.typeCheck(l, pkg.Path, pkg.Dir, pkg.Syntax, internal)
		if err != nil {
			return err
		}
		pkg.Tests = append(pkg.Tests, unit)
		imp = &testBuild{l: l, under: pkg.Path, typed: map[string]*types.Package{pkg.Path: unit.Types}}
	}
	if len(external) > 0 {
		unit, err := l.typeCheck(imp, pkg.Path+"_test", pkg.Dir, nil, external)
		if err != nil {
			return err
		}
		pkg.Tests = append(pkg.Tests, unit)
	}
	return nil
}

// testBuild is the importer of an external test package whose package
// under test has in-package test files. It resolves that package to its
// test build, and re-checks against it every loaded package that imports
// it, as go test recompiles them, so both sides of the test agree on the
// package's types.
type testBuild struct {
	l     *Loader
	under string
	typed map[string]*types.Package
}

func (b *testBuild) Import(path string) (*types.Package, error) {
	if p, ok := b.typed[path]; ok {
		return p, nil
	}
	prod, err := b.l.Import(path)
	if err != nil {
		return nil, err
	}
	pkg, ok := b.l.typed[path]
	if !ok || !b.reaches(prod, map[string]bool{}) {
		return prod, nil
	}
	conf := types.Config{Importer: b}
	tpkg, err := conf.Check(path, b.l.fset, pkg.Syntax, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s against the test build of %s: %w", path, b.under, err)
	}
	b.typed[path] = tpkg
	return tpkg, nil
}

// reaches reports whether p imports the package under test, directly or
// through other packages of the module.
func (b *testBuild) reaches(p *types.Package, seen map[string]bool) bool {
	for _, imp := range p.Imports() {
		path := imp.Path()
		if path == b.under {
			return true
		}
		if _, ok := b.l.typed[path]; ok && !seen[path] {
			seen[path] = true
			if b.reaches(imp, seen) {
				return true
			}
		}
	}
	return false
}
