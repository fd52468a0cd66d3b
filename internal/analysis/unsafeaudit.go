package analysis

import "strings"

// unsafeAllowlist are the module-relative files permitted to import unsafe.
// No production file imports unsafe; the one entry is the analyzer's own
// testdata exemplar of an allowed file. Anything else importing unsafe is
// flagged; extending the allowlist is a reviewed edit to this file, not an
// annotation.
var unsafeAllowlist = []string{
	"internal/analysis/testdata/unsafeaudit/allowed.go",
}

// NewUnsafeAudit returns the unsafeaudit analyzer: unsafe stays confined to
// the allowlist.
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
				pass.Reportf(imp.Pos(), "%s imports unsafe outside the audited allowlist (%s); drop the import or extend the allowlist in internal/analysis/unsafeaudit.go", rel, strings.Join(unsafeAllowlist, ", "))
			}
		}
	}
	return nil
}
