package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// deterministicPkgs are the packages whose results must be reproducible from
// a seed alone: the simulator, the algorithms, the schedulers, the model
// checker, the graph analyses, the fault models and the statistical
// verifier. Subpackages inherit the restriction.
var deterministicPkgs = []string{
	"repro/internal/sim",
	"repro/internal/algo",
	"repro/internal/sched",
	"repro/internal/modelcheck",
	"repro/internal/graphalg",
	"repro/internal/fault",
	"repro/internal/verify",
}

// IsDeterministicPkg reports whether the import path belongs to the
// deterministic core (exported for the loader test).
func IsDeterministicPkg(path string) bool {
	for _, det := range deterministicPkgs {
		if path == det || strings.HasPrefix(path, det+"/") {
			return true
		}
	}
	return false
}

// deterministicFileTrees extends the gate to individual files of packages
// that are otherwise free to use the clock: import-path prefix → the base
// filenames held to the deterministic rules. internal/serve's handlers
// legitimately read time.Now to stamp response timing, but its cache and
// fingerprint logic must stay a pure function of the request sequence —
// cache dispositions and keys have to replay identically from a request
// trace. Subtrees inherit the entry, so testdata under a gated tree is
// checked under the same filename filter. internal/graph is construction-time
// code and free to format, but its automorphism seam is replayed on the model
// checker's hot path — orbit canonicalization must be a pure function of the
// topology — so that one file joins the deterministic core.
var deterministicFileTrees = []struct {
	prefix string
	files  map[string]bool
}{
	{"repro/internal/graph", map[string]bool{"automorphism.go": true}},
	{"repro/internal/serve", map[string]bool{"cache.go": true, "fingerprint.go": true}},
}

// gatedFiles returns the gated-filename set applying to the import path,
// or nil when no file-level entry covers it.
func gatedFiles(path string) map[string]bool {
	for _, tree := range deterministicFileTrees {
		if path == tree.prefix || strings.HasPrefix(path, tree.prefix+"/") {
			return tree.files
		}
	}
	return nil
}

// NewDetSource returns the detsource analyzer: deterministic packages must
// not read wall clocks (time.Now, time.Since), process environment
// (os.Getenv) or the global math/rand generators — every run must be a pure
// function of its explicit seed, and all randomness flows through
// internal/prng. The gate applies per package (deterministicPkgs) or per
// file (deterministicFileTrees) for packages whose deterministic core
// shares a directory with clock-reading code.
func NewDetSource() *Analyzer {
	a := &Analyzer{
		Name: "detsource",
		Doc:  "deterministic packages draw randomness only from internal/prng with explicit seeds",
	}
	a.Run = runDetSource
	return a
}

// forbiddenFuncs maps package path → function names whose call sites are
// nondeterminism leaks.
var forbiddenFuncs = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
	},
}

func runDetSource(pass *Pass) error {
	gated := gatedFiles(pass.Pkg.Path)
	if !IsDeterministicPkg(pass.Pkg.Path) && gated == nil {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		if gated != nil && !gated[filepath.Base(pass.Pkg.Fset.Position(file.Pos()).Filename)] {
			continue
		}
		// math/rand (v1 or v2) is forbidden wholesale: even a locally seeded
		// rand.Rand bypasses the splittable, cross-version-stable stream
		// contract of internal/prng.
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "deterministic package %s imports %s; all randomness must flow through internal/prng with explicit seeds", pass.Pkg.Path, path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if why, ok := forbiddenFuncs[fn.Pkg().Path()][fn.Name()]; ok {
				pass.Reportf(sel.Pos(), "%s.%s %s; deterministic package %s must be a pure function of its seed", fn.Pkg().Path(), fn.Name(), why, pass.Pkg.Path)
			}
			return true
		})
	}
	return nil
}
