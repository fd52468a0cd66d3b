// Package analysis is a small, standard-library-only static-analysis
// framework plus the repository's own analyzers (the "dplint" suite). The
// repository's core guarantees — deterministic results at any worker count,
// allocation-flat hot paths, no unsafe outside an audited allowlist, canonical
// registry names — are enforced dynamically by equivalence grids and
// allocation budgets; the analyzers in this package prove the underlying
// mechanisms at the AST/type level on every commit, before a violation can
// ship and hope to be caught by a grid.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis (Analyzer, Pass, positional diagnostics, a testdata harness
// driven by "// want" comments) without importing it: the module has zero
// dependencies and keeps it that way. Packages are parsed and type-checked
// once by Loader and shared by every analyzer.
//
// # Suppression
//
// A diagnostic is suppressed by an annotation on the flagged line or the
// line directly above it:
//
//	//dplint:ok <analyzer> <reason>
//
// The reason is mandatory and the analyzer name must exist; a malformed or
// unused annotation is itself reported, so stale suppressions cannot
// accumulate silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the Pass; the driver handles suppression,
// ordering and aggregation. Analyzers carrying cross-package state (the
// registry-uniqueness check) are constructed fresh per driver run by
// NewAnalyzers.
type Analyzer struct {
	// Name is the analyzer's short name, used in diagnostics and in
	// //dplint:ok annotations.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects pkg and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass is one analyzer's view of one loaded package.
type Pass struct {
	// Pkg is the parsed and type-checked package under analysis.
	Pkg *Package
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer

	sink *sink
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.sink.add(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by identifier id (definition or use),
// or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// sink collects diagnostics from all passes of one driver run.
type sink struct {
	diags []Diagnostic
}

func (s *sink) add(d Diagnostic) { s.diags = append(s.diags, d) }

// suppression is one parsed //dplint:ok annotation.
type suppression struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// suppressionPrefix starts every suppression comment.
const suppressionPrefix = "//dplint:ok"

// collectSuppressions parses the //dplint:ok annotations of a package into a
// per-(file, line) index.
func collectSuppressions(pkg *Package) map[string][]*suppression {
	idx := make(map[string][]*suppression)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppressionPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, suppressionPrefix)
				fields := strings.Fields(rest)
				s := &suppression{pos: pkg.Fset.Position(c.Pos())}
				if len(fields) > 0 {
					s.analyzer = fields[0]
					s.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				key := lineKey(s.pos.Filename, s.pos.Line)
				idx[key] = append(idx[key], s)
			}
		}
	}
	return idx
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// Run executes the analyzers over the packages and returns the surviving
// diagnostics in deterministic (file, line, column, analyzer) order. A
// diagnostic is dropped when a matching //dplint:ok annotation sits on its
// line or the line directly above; malformed (missing reason, unknown
// analyzer) and unused annotations are reported as "dplint" diagnostics so
// the suppression inventory stays accurate.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		supp := collectSuppressions(pkg)
		s := &sink{}
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Analyzer: a, sink: s}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		for _, d := range s.diags {
			if sp := matchSuppression(supp, d); sp != nil {
				sp.used = true
				continue
			}
			out = append(out, d)
		}
		// Annotation hygiene: every annotation must name a real analyzer,
		// carry a reason, and suppress something.
		var anns []*suppression
		for _, list := range supp {
			anns = append(anns, list...)
		}
		sort.Slice(anns, func(i, j int) bool { return positionLess(anns[i].pos, anns[j].pos) })
		for _, sp := range anns {
			switch {
			case !known[sp.analyzer]:
				out = append(out, Diagnostic{
					Analyzer: "dplint", Pos: sp.pos,
					Message: fmt.Sprintf("//dplint:ok names unknown analyzer %q (known: %s)", sp.analyzer, analyzerNames(analyzers)),
				})
			case sp.reason == "":
				out = append(out, Diagnostic{
					Analyzer: "dplint", Pos: sp.pos,
					Message: fmt.Sprintf("//dplint:ok %s needs a reason: //dplint:ok %s <why the finding is safe>", sp.analyzer, sp.analyzer),
				})
			case !sp.used:
				out = append(out, Diagnostic{
					Analyzer: "dplint", Pos: sp.pos,
					Message: fmt.Sprintf("unused suppression: %s reports nothing on the next line (stale //dplint:ok)", sp.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if positionLess(out[i].Pos, out[j].Pos) {
			return true
		}
		if positionLess(out[j].Pos, out[i].Pos) {
			return false
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// matchSuppression returns the first annotation covering d: same analyzer,
// same file, on d's line or the line directly above.
func matchSuppression(idx map[string][]*suppression, d Diagnostic) *suppression {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		for _, sp := range idx[lineKey(d.Pos.Filename, line)] {
			if sp.analyzer == d.Analyzer && sp.reason != "" {
				return sp
			}
		}
	}
	return nil
}

func positionLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func analyzerNames(analyzers []*Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// NewAnalyzers returns a fresh instance of the full dplint suite. Instances
// must not be shared between driver runs: registryname accumulates the
// cross-package name→site map of one run, and unused keeps the module
// reference set it loaded.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewMapOrder(),
		NewDetSource(),
		NewHotAlloc(),
		NewUnsafeAudit(),
		NewRegistryName(),
		NewUnused(),
	}
}
