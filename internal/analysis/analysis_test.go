package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// The six analyzer suites: each testdata package seeds positive hits,
// suppressed hits and clean code, with expectations in // want comments.

func TestMapOrderSuite(t *testing.T) {
	analysistest.Run(t, "testdata/maporder", analysis.NewMapOrder())
}

func TestDetSourceSuite(t *testing.T) {
	analysistest.Run(t, "../sim/testdata/dplint/detsource", analysis.NewDetSource())
}

// TestDetSourceFileGateSuite exercises the file-level gate: under
// repro/internal/serve only cache.go and fingerprint.go are held to the
// deterministic rules, so the testdata's cache.go reports and its
// handlers.go — same calls, ungated filename — stays silent.
func TestDetSourceFileGateSuite(t *testing.T) {
	analysistest.Run(t, "../serve/testdata/dplint/detsource", analysis.NewDetSource())
}

func TestHotAllocSuite(t *testing.T) {
	analysistest.Run(t, "../sim/testdata/dplint/hotalloc", analysis.NewHotAlloc())
}

func TestUnsafeAuditSuite(t *testing.T) {
	analysistest.Run(t, "testdata/unsafeaudit", analysis.NewUnsafeAudit())
}

func TestRegistryNameSuite(t *testing.T) {
	analysistest.Run(t, "../sched/testdata/dplint/regnames", analysis.NewRegistryName())
}

// TestUnusedSuite runs the unused analyzer over a testdata module laid out
// like this one — internal packages, a test-helper package, dining, cmd/,
// examples/ and a nested perfbench module — once whole and once per package
// directory, with the same expected findings both ways.
func TestUnusedSuite(t *testing.T) {
	analysistest.RunModule(t, "testdata/unused", func() []*analysis.Analyzer {
		return []*analysis.Analyzer{analysis.NewUnused()}
	})
}

// TestSuppressionHygiene pins the driver's own findings: annotations missing
// a reason, naming an unknown analyzer, or suppressing nothing are reported
// (and a reason-less annotation does not suppress). Asserted directly rather
// than via want comments because the findings sit on the annotation lines.
func TestSuppressionHygiene(t *testing.T) {
	pkg := analysistest.Load(t, "testdata/hygiene")
	diags, err := analysis.Run([]*analysis.Package{pkg}, analysis.NewAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"//dplint:ok maporder needs a reason",
		"map iteration order is accumulated by append into keys",
		"unused suppression: maporder reports nothing",
		`//dplint:ok names unknown analyzer "nosuchcheck"`,
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrings), render(diags))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("diagnostic %d = %s, want substring %q", i, diags[i], sub)
		}
	}
}

// TestTreeIsClean is the satellite gate in test form: the full dplint suite
// over every package of the module reports nothing, i.e. `dplint ./...`
// exits 0.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := analysistest.Loader(t).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, analysis.NewAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("dplint findings on the tree:\n%s", render(diags))
	}
}

func render(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
