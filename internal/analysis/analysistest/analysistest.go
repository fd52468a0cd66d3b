// Package analysistest runs dplint analyzers over testdata packages and
// checks their diagnostics against "// want" comments, mirroring the
// expectation harness of golang.org/x/tools' analysistest without the
// dependency.
//
// A testdata file marks each expected diagnostic on the line it occurs:
//
//	for k := range m { // want `map iteration order`
//
// Each quoted string after "want" is a regular expression that must match
// the message of exactly one diagnostic reported on that line; diagnostics
// without a matching expectation, and expectations without a matching
// diagnostic, fail the test. Lines without want comments must stay silent,
// which is how suppressed and clean cases are asserted.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var (
	mu        sync.Mutex
	sharedErr error
	shared    *analysis.Loader
)

// Loader returns the process-wide loader rooted at the enclosing module.
// Sharing one loader across tests means the module's packages (and the
// standard library, which the source importer type-checks from GOROOT/src)
// are loaded once, not once per test.
func Loader(t *testing.T) *analysis.Loader {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if shared == nil && sharedErr == nil {
		root, err := analysis.FindModuleRoot(".")
		if err != nil {
			sharedErr = err
		} else {
			shared, sharedErr = analysis.NewLoader(root)
		}
	}
	if sharedErr != nil {
		t.Fatalf("analysistest: loader: %v", sharedErr)
	}
	return shared
}

// Load parses and type-checks the package in dir under its natural import
// path. Path-gated analyzers are exercised by placing testdata inside the
// gated trees (internal/sim/testdata, internal/sched/testdata): testdata
// directories are invisible to the go tool and to the module-wide lint walk,
// but their natural import paths still sit inside the deterministic core.
func Load(t *testing.T, dir string) *analysis.Package {
	t.Helper()
	l := Loader(t)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	pkg, err := l.LoadDirDefault(abs)
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	return pkg
}

// Run loads the testdata package in dir, applies the analyzers, and compares
// every diagnostic (including the driver's suppression-hygiene findings)
// against the package's want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	check(t, []*analysis.Package{Load(t, dir)}, analyzers)
}

// RunModule checks analyzers whose verdict depends on the whole module. dir
// is the root of a testdata module (a directory with its own go.mod). Every
// package of it is loaded by a fresh loader, the analyzers newAnalyzers
// returns run over all of them, and the diagnostics are compared against the
// want comments of every package. Then each package is checked again alone,
// with a fresh loader and fresh analyzers, as `dplint <package dir>` runs
// it: its diagnostics must match the same want comments, so the verdict
// cannot depend on which packages the command line named.
func RunModule(t *testing.T, dir string, newAnalyzers func() []*analysis.Analyzer) {
	t.Helper()
	pkgs, err := moduleLoader(t, dir).LoadAll()
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}
	t.Run("module", func(t *testing.T) { check(t, pkgs, newAnalyzers()) })
	for _, pkg := range pkgs {
		t.Run(pkg.Path, func(t *testing.T) {
			alone, err := moduleLoader(t, dir).LoadDirDefault(pkg.Dir)
			if err != nil {
				t.Fatalf("analysistest: load %s: %v", pkg.Dir, err)
			}
			check(t, []*analysis.Package{alone}, newAnalyzers())
		})
	}
}

func moduleLoader(t *testing.T, dir string) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("analysistest: loader: %v", err)
	}
	return l
}

// check applies the analyzers to pkgs and matches the diagnostics against
// their want comments.
func check(t *testing.T, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analysistest: run: %v", err)
	}
	var wants []*want
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg)...)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantStrRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts the expectations from every "// want" comment.
func parseWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantStrRE.FindAllString(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, q := range quoted {
					pattern, err := unquoteWant(q)
					if err != nil {
						t.Fatalf("%s: malformed want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, q, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func unquoteWant(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	s, err := strconv.Unquote(q)
	if err != nil {
		return "", fmt.Errorf("unquote: %w", err)
	}
	return s, nil
}

// claim marks the first unmatched expectation covering d.
func claim(wants []*want, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
