package analysis

import "strings"

// unsafeAllowlist are the module-relative files permitted to import unsafe.
// Today that is exactly the model checker's explorer, whose StateSpace.KeyOf
// returns unsafe.String views of keys in the intern store's byte arena
// (which never moves or rewrites a stored key) instead of copying them —
// plus the analyzer's own testdata exemplar of an allowed file. Anything
// else importing unsafe is flagged; extending the allowlist is a reviewed
// edit to this file, not an annotation.
var unsafeAllowlist = []string{
	"internal/modelcheck/explore.go",
	"internal/analysis/testdata/unsafeaudit/allowed.go",
}

// NewUnsafeAudit returns the unsafeaudit analyzer: unsafe stays confined to
// the intern-key arena.
func NewUnsafeAudit() *Analyzer {
	a := &Analyzer{
		Name: "unsafeaudit",
		Doc:  "unsafe imports are confined to an explicit file allowlist",
	}
	a.Run = runUnsafeAudit
	return a
}

func runUnsafeAudit(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) != "unsafe" {
				continue
			}
			rel := pass.Pkg.RelFile(imp.Pos())
			allowed := false
			for _, ok := range unsafeAllowlist {
				if rel == ok {
					allowed = true
					break
				}
			}
			if !allowed {
				pass.Reportf(imp.Pos(), "%s imports unsafe outside the audited allowlist (%s); confine unsafe to the intern arena or extend the allowlist in internal/analysis/unsafeaudit.go", rel, strings.Join(unsafeAllowlist, ", "))
			}
		}
	}
	return nil
}
