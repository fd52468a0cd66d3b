package dining

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/par"
	"repro/internal/stats"
)

// Sweep crosses a topology × algorithm × scheduler grid into a scenario
// matrix: every combination becomes one scenario, every scenario runs Trials
// Monte-Carlo trials, and the per-scenario aggregates stream out as workers
// finish. The whole matrix is deterministic: a scenario's trials derive all
// randomness from the base seed and the scenario's grid index, so the matrix
// is bit-identical for any worker count.
type Sweep struct {
	// Topologies is the grid's topology axis (required, at least one).
	Topologies []*Topology
	// Algorithms is the grid's algorithm axis by registered name (required).
	Algorithms []string
	// Schedulers is the grid's scheduler axis by registered name
	// (default: just Random).
	Schedulers []string
	// Faults is the grid's fault axis: fault specs in the internal/fault
	// grammar ("crash-rejoin:0.1", "freeze:0.05@0"); the empty spec "" is the
	// no-fault cell. Default: just the no-fault cell, so existing grids are
	// unchanged.
	Faults []string
	// Trials is the number of runs per scenario (default 10).
	Trials int
	// MaxSteps bounds each run (0 = the simulator default).
	MaxSteps int64
	// Seed is the base seed of the whole sweep.
	Seed uint64
	// Workers bounds the scenario goroutines (0 = one per CPU,
	// 1 = sequential). The matrix is identical for every value.
	Workers int
	// AlgorithmOptions tunes every algorithm in the grid.
	AlgorithmOptions AlgorithmOptions
	// FairnessWindow configures adversarial schedulers in the grid
	// (0 = default).
	FairnessWindow int64
}

// Scenario is one cell of the sweep grid.
type Scenario struct {
	// Index is the scenario's position in grid order (topology-major, then
	// algorithm, then scheduler, then faults); it determines all of the
	// scenario's randomness.
	Index int `json:"index"`
	// Topology, Algorithm and Scheduler name the cell's configuration.
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	// Faults is the cell's fault spec ("" = no faults).
	Faults string `json:"faults,omitempty"`

	topo *Topology
}

// ScenarioResult aggregates one scenario's trials.
type ScenarioResult struct {
	Scenario
	// Trials is the number of runs aggregated.
	Trials int `json:"trials"`
	// ProgressRuns counts runs with at least one meal.
	ProgressRuns int `json:"progress_runs"`
	// MeanEats is the mean number of completed meals per run.
	MeanEats float64 `json:"mean_eats"`
	// MeanStepsPerMeal is the mean cost of a meal over runs that ate.
	MeanStepsPerMeal float64 `json:"mean_steps_per_meal"`
	// MeanWaitSteps is the mean hungry-to-eating wait, averaged over runs.
	MeanWaitSteps float64 `json:"mean_wait_steps"`
	// MeanJain is the mean Jain fairness index of per-philosopher meals.
	MeanJain float64 `json:"mean_jain"`
	// StarvedRuns counts runs in which some hungry philosopher never ate.
	StarvedRuns int `json:"starved_runs"`
}

// scenarioSeedStride separates the seed blocks of consecutive scenarios so
// that no two scenarios share a trial seed.
const scenarioSeedStride = 1_000_003

// Scenarios expands the grid into its scenario list in grid order. It errors
// on an empty axis, on a negative count, bound or window and on an
// AlgorithmOptions.M above graph.MaxTopologySize, so that a
// misconfigured sweep fails loudly before it streams anything instead of
// streaming nothing or silently running the defaults.
func (s Sweep) Scenarios() ([]Scenario, error) {
	if len(s.Topologies) == 0 {
		return nil, fmt.Errorf("dining: Sweep needs at least one topology")
	}
	if len(s.Algorithms) == 0 {
		return nil, fmt.Errorf("dining: Sweep needs at least one algorithm")
	}
	for _, f := range []struct {
		name  string
		value int64
	}{
		{"Trials", int64(s.Trials)},
		{"MaxSteps", s.MaxSteps},
		{"Workers", int64(s.Workers)},
		{"AlgorithmOptions.M", int64(s.AlgorithmOptions.M)},
		{"FairnessWindow", s.FairnessWindow},
	} {
		if f.value < 0 {
			return nil, fmt.Errorf("dining: Sweep.%s = %d is negative", f.name, f.value)
		}
	}
	if s.AlgorithmOptions.M > maxM {
		return nil, fmt.Errorf("dining: Sweep.AlgorithmOptions.M = %d exceeds the bound %d", s.AlgorithmOptions.M, maxM)
	}
	schedulers := s.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{Random}
	}
	faults := s.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	var out []Scenario
	for _, topo := range s.Topologies {
		if topo == nil {
			return nil, fmt.Errorf("dining: Sweep has a nil topology")
		}
		for _, alg := range s.Algorithms {
			for _, sch := range schedulers {
				for _, flt := range faults {
					out = append(out, Scenario{
						Index:     len(out),
						Topology:  topo.Name(),
						Algorithm: alg,
						Scheduler: sch,
						Faults:    flt,
						topo:      topo,
					})
				}
			}
		}
	}
	return out, nil
}

// trials returns the per-scenario trial count.
func (s Sweep) trials() int {
	if s.Trials <= 0 {
		return 10
	}
	return s.Trials
}

// runScenario executes one scenario's trials sequentially (parallelism lives
// at the scenario level) and aggregates them in trial order.
func (s Sweep) runScenario(ctx context.Context, sc Scenario) (ScenarioResult, error) {
	opts := []Option{
		WithScheduler(sc.Scheduler),
		WithSeed(s.Seed + uint64(sc.Index)*scenarioSeedStride*seedStride),
		WithMaxSteps(s.MaxSteps),
		WithAlgorithmOptions(s.AlgorithmOptions),
		WithFairnessWindow(s.FairnessWindow),
		WithWorkers(1),
	}
	if sc.Faults != "" {
		opts = append(opts, WithFaults(sc.Faults))
	}
	eng, err := New(sc.topo, sc.Algorithm, opts...)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("dining: sweep scenario %d (%s/%s/%s/%s): %w",
			sc.Index, sc.Topology, sc.Algorithm, sc.Scheduler, orNone(sc.Faults), err)
	}
	res := ScenarioResult{Scenario: sc, Trials: s.trials()}
	var eats, wait, jain, stepsPerMeal stats.Running
	for tr, err := range eng.Trials(ctx, res.Trials) {
		if err != nil {
			return ScenarioResult{}, err
		}
		if tr.TotalEats > 0 {
			res.ProgressRuns++
			stepsPerMeal.Add(float64(tr.Steps) / float64(tr.TotalEats))
		}
		if len(tr.Starved) > 0 {
			res.StarvedRuns++
		}
		eats.Add(float64(tr.TotalEats))
		wait.Add(tr.MeanWaitSteps)
		jain.Add(stats.JainIndex(tr.EatsBy))
	}
	res.MeanEats = eats.Mean()
	res.MeanStepsPerMeal = stepsPerMeal.Mean()
	res.MeanWaitSteps = wait.Mean()
	res.MeanJain = jain.Mean()
	return res, nil
}

// Stream runs the sweep, yielding each scenario's aggregate as its worker
// finishes — completion order, not grid order. The result yielded for a
// given scenario is bit-identical whatever the worker count. The stream
// stops at the first error or context cancellation, yielding that error
// last.
func (s Sweep) Stream(ctx context.Context) iter.Seq2[ScenarioResult, error] {
	return func(yield func(ScenarioResult, error) bool) {
		scenarios, err := s.Scenarios()
		if err != nil {
			yield(ScenarioResult{}, err)
			return
		}
		s.stream(ctx, scenarios)(yield)
	}
}

// stream runs an already-expanded scenario list.
func (s Sweep) stream(ctx context.Context, scenarios []Scenario) iter.Seq2[ScenarioResult, error] {
	return func(yield func(ScenarioResult, error) bool) {
		for item := range par.Stream(ctx, s.Workers, len(scenarios), func(i int) (ScenarioResult, error) {
			return s.runScenario(ctx, scenarios[i])
		}) {
			if item.Err != nil {
				yield(ScenarioResult{Scenario: scenarios[item.Index]}, item.Err)
				return
			}
			if !yield(item.Value, nil) {
				return
			}
		}
	}
}

// Results runs the sweep to completion and returns every scenario result in
// grid order — the blocking counterpart of Stream, bit-identical for any
// worker count.
func (s Sweep) Results(ctx context.Context) ([]ScenarioResult, error) {
	scenarios, err := s.Scenarios()
	if err != nil {
		return nil, err
	}
	out := make([]ScenarioResult, len(scenarios))
	for res, err := range s.stream(ctx, scenarios) {
		if err != nil {
			return nil, err
		}
		out[res.Index] = res
	}
	return out, nil
}

// Matrix runs the sweep and renders the scenario results as a Table in grid
// order, ready for text, Markdown or JSON output.
func (s Sweep) Matrix(ctx context.Context) (*Table, error) {
	results, err := s.Results(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "sweep",
		Title:  fmt.Sprintf("%d-scenario sweep, %d trials each", len(results), s.trials()),
		Header: []string{"topology", "algorithm", "scheduler", "progress runs", "mean meals", "steps/meal", "mean wait", "Jain", "starved runs"},
	}
	// The faults column only appears when the sweep actually has a fault
	// axis, so fault-free matrices render exactly as before.
	withFaults := len(s.Faults) > 0
	if withFaults {
		t.Header = append([]string{t.Header[0], t.Header[1], t.Header[2], "faults"}, t.Header[3:]...)
	}
	for _, r := range results {
		row := []any{r.Topology, r.Algorithm, r.Scheduler}
		if withFaults {
			row = append(row, orNone(r.Faults))
		}
		row = append(row,
			fmt.Sprintf("%d/%d", r.ProgressRuns, r.Trials),
			fmt.Sprintf("%.1f", r.MeanEats),
			fmt.Sprintf("%.1f", r.MeanStepsPerMeal),
			fmt.Sprintf("%.1f", r.MeanWaitSteps),
			fmt.Sprintf("%.3f", r.MeanJain),
			r.StarvedRuns)
		t.AddRow(row...)
	}
	return t, nil
}

// orNone renders the empty fault spec as "none" in tables and error text.
func orNone(spec string) string {
	if spec == "" {
		return "none"
	}
	return spec
}
