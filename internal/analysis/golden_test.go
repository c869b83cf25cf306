package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests run each analyzer over its testdata package and compare
// the diagnostics against `// want "substring"` comments: every want must
// be matched by a diagnostic on its line, and every diagnostic must be
// covered by a want. Lines without a want comment are the negative cases —
// idioms the analyzer must accept.

var (
	loaderOnce sync.Once
	goldLoader *Loader
	goldErr    error
)

// testdataLoader shares one Loader (and its stdlib type-check cache)
// across all golden tests.
func testdataLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { goldLoader, goldErr = NewLoader(".") })
	if goldErr != nil {
		t.Fatalf("NewLoader: %v", goldErr)
	}
	return goldLoader
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file string // base name
	line int
	msg  string // substring the diagnostic message must contain
	hit  bool
}

// collectWants scans the package directory's sources for want comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	var wants []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants = append(wants, &expectation{file: e.Name(), line: i + 1, msg: m[1]})
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<name> for each name (with their _test.go
// files, as Load does for any target), applies the analyzer to all of them,
// and matches findings against the want comments.
func runGolden(t *testing.T, a *Analyzer, names ...string) {
	t.Helper()
	var dirs []string
	var wants []*expectation
	for _, name := range names {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
		wants = append(wants, collectWants(t, dir)...)
	}
	pkgs, err := testdataLoader(t).Load(dirs...)
	if err != nil {
		t.Fatalf("Load(%v): %v", names, err)
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		RunOne(a, pkg, report)
	}
	if a.Finish != nil {
		a.Finish(report)
	}
	Sort(diags)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.File) && w.line == d.Line && strings.Contains(d.Message, w.msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("no // want comments under testdata/src for %v", names)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.msg)
		}
	}
}

func TestNoAllocGolden(t *testing.T)   { runGolden(t, NoAlloc(), "noalloc") }
func TestLockScopeGolden(t *testing.T) { runGolden(t, LockScope(), "lockscope") }
func TestCtxFlowGolden(t *testing.T)   { runGolden(t, CtxFlow(), "ctxflow") }
func TestUnusedGolden(t *testing.T)    { runGolden(t, Unused(), "unused", "unused/user") }
