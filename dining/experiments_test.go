package dining_test

import (
	"strings"
	"testing"

	"repro/dining"
)

// suiteSeed is dpbench's default seed; the quick-suite golden was recorded
// with it.
const suiteSeed = 20010903

// TestExperimentSuiteGolden pins every deterministic table of the quick
// suite — all but E-RT, whose throughput depends on the wall clock — against
// the output of dpbench -quick -json, at one worker and at one per CPU. To
// regenerate after a deliberate change:
//
//	go test ./dining -run TestExperimentSuiteGolden -update-golden
func TestExperimentSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	t.Parallel()
	for _, workers := range []int{1, 0} {
		cfg := dining.ExperimentConfig{Quick: true, Seed: suiteSeed, Workers: workers}
		var tables []*dining.Table
		for _, exp := range dining.Experiments() {
			if exp.ID == "E-RT" {
				continue
			}
			table, err := dining.RunByID(exp.ID, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, exp.ID, err)
			}
			tables = append(tables, table)
		}
		checkGolden(t, "experiments_quick.golden.json", tables)
	}
}

// TestExperimentSymmetryQuotientsTheorem1 pins that the suite's Symmetry
// option reaches the E-T1 rows: the classic ring under LR1 is explored as its
// dihedral quotient (88 orbits instead of 486 states), and every verdict is
// the one of the unreduced run.
func TestExperimentSymmetryQuotientsTheorem1(t *testing.T) {
	t.Parallel()
	plain, err := dining.RunByID("E-T1", dining.ExperimentConfig{Quick: true, Seed: suiteSeed})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := dining.RunByID("E-T1", dining.ExperimentConfig{Quick: true, Seed: suiteSeed, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rows) != len(quot.Rows) {
		t.Fatalf("row counts differ: %d plain, %d quotient", len(plain.Rows), len(quot.Rows))
	}
	const verdict = 4
	found := false
	for i, row := range quot.Rows {
		if row[verdict] != plain.Rows[i][verdict] {
			t.Errorf("row %d (%s/%s): verdict %s under symmetry, %s without", i, row[0], row[1], row[verdict], plain.Rows[i][verdict])
		}
		if row[0] == "ring-3" && row[1] == dining.LR1 {
			found = true
			if want := "88 states, safe region 40, trap 0"; row[5] != want {
				t.Errorf("ring-3/LR1 under symmetry: detail %q, want %q", row[5], want)
			}
		}
	}
	if !found {
		t.Error("E-T1 has no ring-3/LR1 row")
	}
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	table := &dining.Table{
		ID:         "E-X",
		Title:      "demo",
		Reproduces: "nothing",
		Header:     []string{"a", "b"},
	}
	table.AddRow("x", 1)
	table.AddRow(2.5, "y")
	table.AddNote("note %d", 7)
	md := table.Markdown()
	for _, want := range []string{"## E-X", "| a | b |", "| x | 1 |", "note 7"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	txt := table.Text()
	if !strings.Contains(txt, "E-X") || !strings.Contains(txt, "2.500") {
		t.Errorf("text rendering wrong:\n%s", txt)
	}
	doc := dining.RenderMarkdown("# intro", []*dining.Table{table})
	if !strings.Contains(doc, "# intro") || !strings.Contains(doc, "## E-X") {
		t.Error("RenderMarkdown malformed")
	}
}

func TestExperimentRegistry(t *testing.T) {
	t.Parallel()
	exps := dining.Experiments()
	if len(exps) < 8 {
		t.Fatalf("expected at least 8 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := dining.RunByID("E-NOPE", dining.ExperimentConfig{Quick: true}); err == nil {
		t.Error("RunByID accepted an unknown id")
	}
}

func TestRunFigure1Experiment(t *testing.T) {
	t.Parallel()
	table, err := dining.RunByID("E-F1", dining.ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Errorf("E-F1 should have 4 rows, got %d", len(table.Rows))
	}
}

func TestRunSection3ExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	t.Parallel()
	table, err := dining.RunByID("E-S3", dining.ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("E-S3 should report 4 algorithms, got %d rows", len(table.Rows))
	}
	// Row order: LR1, LR2, GDP1, GDP2. The GDP rows must report zero
	// no-progress runs (Theorem 3/4), LR1 a positive number (Section 3).
	if !strings.HasPrefix(table.Rows[2][1], "0/") || !strings.HasPrefix(table.Rows[3][1], "0/") {
		t.Errorf("GDP1/GDP2 should never be starved: %v", table.Rows)
	}
	if strings.HasPrefix(table.Rows[0][1], "0/") {
		t.Errorf("LR1 should be starved in at least one quick trial: %v", table.Rows[0])
	}
}

func TestRunNumberRangeSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness skipped in -short mode")
	}
	t.Parallel()
	table, err := dining.RunByID("E-B2", dining.ExperimentConfig{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Errorf("E-B2 should sweep 4 values of m, got %d rows", len(table.Rows))
	}
	for _, row := range table.Rows {
		if !strings.HasSuffix(row[3], "/10") || !strings.HasPrefix(row[3], "10/") {
			t.Errorf("GDP1 should progress in every trial of the m sweep: %v", row)
		}
	}
}

// TestParallelTrialsMatchSequential is the determinism guarantee of the
// suite's parallel trials: for a fixed seed, every Monte-Carlo experiment
// table must be identical whether the trials run sequentially (Workers: 1)
// or fanned out over many goroutines — same rows, same floating-point
// aggregates, same rendered markdown. Trial seeds depend only on the trial
// index and aggregation happens in index order, so scheduling must be
// unobservable.
func TestParallelTrialsMatchSequential(t *testing.T) {
	t.Parallel()
	// The Monte-Carlo experiments of the suite (E-RT is wall-clock bound and
	// E-F1/E-T1/E-T2's model-check rows are deterministic anyway but slow).
	for _, id := range []string{"E-S3", "E-T3", "E-B1", "E-B2"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq, err := dining.RunByID(id, dining.ExperimentConfig{Quick: true, Seed: 99, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := dining.RunByID(id, dining.ExperimentConfig{Quick: true, Seed: 99, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Markdown() != par.Markdown() {
				t.Errorf("parallel table differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seq.Markdown(), par.Markdown())
			}
		})
	}
}
