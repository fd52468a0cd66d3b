package dining_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/dining"
)

// mustCheckJSON runs CheckAll and returns the results in their stable JSON
// wire form — the deep-equality currency of the determinism tests below.
func mustCheckJSON(t *testing.T, eng *dining.Engine, props ...string) string {
	t.Helper()
	results, err := eng.CheckAll(context.Background(), props...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func mustEngine(t *testing.T, topo *dining.Topology, alg string, opts ...dining.Option) *dining.Engine {
	t.Helper()
	eng, err := dining.New(topo, alg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func checkOne(t *testing.T, eng *dining.Engine, prop string) dining.PropertyResult {
	t.Helper()
	results, err := eng.CheckAll(context.Background(), prop)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Property != prop {
		t.Fatalf("CheckAll(%s) returned %+v", prop, results)
	}
	if results[0].Truncated {
		t.Fatalf("%s on %s: exploration truncated; the instance is supposed to fit", eng.Algorithm(), eng.Topology())
	}
	return results[0]
}

func TestPropertyRegistry(t *testing.T) {
	t.Parallel()
	names := dining.Properties()
	for _, want := range []string{
		dining.DeadlockFreedom, dining.Progress, dining.LockoutFreedom, dining.StarvationTrap,
		dining.StatisticalProgress, dining.StatisticalLockout,
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in property %q not registered (have %v)", want, names)
		}
	}
	if _, err := dining.LookupProperty("nope"); err == nil {
		t.Error("LookupProperty accepted an unknown name")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-property error should list the registered options, got: %v", err)
	}

	p, err := dining.LookupProperty(dining.Progress)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != dining.ExhaustiveProperty {
		t.Errorf("progress should be exhaustive, got %q", p.Kind())
	}
}

func TestEngineCheckUnknownProperty(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Ring(3), dining.LR1)
	if _, err := eng.CheckAll(context.Background(), "warp-freedom"); err == nil {
		t.Error("CheckAll accepted an unknown property name")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-property error should list the registered options, got: %v", err)
	}
	sawErr := false
	for _, err := range eng.Check(context.Background(), "warp-freedom") {
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("Check stream swallowed the unknown property name")
	}
}

// TestEngineCheckReproducesTheorems replays every verdict of the internal
// model-checker test suite (Theorems 1–4 and their boundary cases) through
// the public property layer: the starvation-trap, progress, deadlock-freedom
// and lockout-freedom built-ins on the paper's minimal instances.
func TestEngineCheckReproducesTheorems(t *testing.T) {
	t.Parallel()
	ring3 := []dining.PhilID{0, 1, 2}
	theta := dining.Theorem2Minimal()
	t1min := dining.Theorem1Minimal()

	type tc struct {
		name      string
		topo      *dining.Topology
		algorithm string
		opts      dining.AlgorithmOptions
		protected []dining.PhilID
		prop      string
		wantPass  bool
		big       bool
	}
	cases := []tc{
		// Theorem 1: a fair adversary defeats LR1 once a ring fork is shared.
		{"T1 LR1 trap", t1min, dining.LR1, dining.AlgorithmOptions{}, ring3, dining.StarvationTrap, false, false},
		{"T1 LR1 global", t1min, dining.LR1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, false, false},
		{"T1 pendant LR1", dining.RingWithPendant(3), dining.LR1, dining.AlgorithmOptions{}, ring3, dining.StarvationTrap, false, false},
		// Lehmann-Rabin 1981: no trap for LR1 on the classic ring.
		{"LR1 classic ring", dining.Ring(3), dining.LR1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, true, false},
		// Theorem 2: the theta graph defeats LR1 and LR2 even for global progress.
		{"T2 LR1", theta, dining.LR1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, false, false},
		{"T2 LR2", theta, dining.LR2, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, false, false},
		// Theorem 3: GDP1 has no progress trap anywhere.
		{"T3 GDP1 theta", theta, dining.GDP1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, true, false},
		{"T3 GDP1 t1min", t1min, dining.GDP1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, true, true},
		{"T3 GDP1 ring", dining.Ring(3), dining.GDP1, dining.AlgorithmOptions{}, nil, dining.StarvationTrap, true, false},
		// GDP1 is not lockout-free (Section 5 motivation).
		{"GDP1 lockout", theta, dining.GDP1, dining.AlgorithmOptions{}, []dining.PhilID{0}, dining.LockoutFreedom, false, false},
		// Theorem 4: GDP2 is lockout-free on the minimal generalized instance.
		{"T4 GDP2", theta, dining.GDP2, dining.AlgorithmOptions{}, []dining.PhilID{0}, dining.LockoutFreedom, true, false},
		// LR2 is lockout-free on the classic ring; LR1 is not.
		{"LR2 ring lockout", dining.Ring(3), dining.LR2, dining.AlgorithmOptions{}, []dining.PhilID{0}, dining.LockoutFreedom, true, false},
		{"LR1 ring lockout", dining.Ring(3), dining.LR1, dining.AlgorithmOptions{}, []dining.PhilID{0}, dining.LockoutFreedom, false, false},
		// The paper's algorithms never wedge; the naive baseline deadlocks.
		{"GDP2 deadlock-free", theta, dining.GDP2, dining.AlgorithmOptions{}, nil, dining.DeadlockFreedom, true, false},
		{"GDP2 progress", theta, dining.GDP2, dining.AlgorithmOptions{}, nil, dining.Progress, true, false},
		{"naive deadlocks", dining.Ring(3), dining.NaiveLeftFirst, dining.AlgorithmOptions{}, nil, dining.DeadlockFreedom, false, false},
		{"naive dead region", dining.Ring(3), dining.NaiveLeftFirst, dining.AlgorithmOptions{}, nil, dining.Progress, false, false},
		// E-T4 courtesy gap: first-fork-only courtesy admits an individual
		// trap on the classic ring; both-forks courtesy removes it.
		{"GDP2 courtesy gap", dining.Ring(3), dining.GDP2, dining.AlgorithmOptions{}, []dining.PhilID{0}, dining.LockoutFreedom, false, true},
		{"GDP2 strengthened", dining.Ring(3), dining.GDP2, dining.AlgorithmOptions{CourtesyOnBothForks: true}, []dining.PhilID{0}, dining.LockoutFreedom, true, true},
	}
	for _, c := range cases {
		if testing.Short() && c.big {
			continue
		}
		eng := mustEngine(t, c.topo, c.algorithm,
			dining.WithAlgorithmOptions(c.opts), dining.WithProtected(c.protected...))
		res := checkOne(t, eng, c.prop)
		if res.Passed != c.wantPass {
			t.Errorf("%s: %s on %s (protected %v): passed=%v, want %v — %s",
				c.name, c.algorithm, c.topo.Name(), c.protected, res.Passed, c.wantPass, res.Detail)
			continue
		}
		if !res.Passed {
			// Every exhaustive failure must carry a replayable counterexample.
			if res.Counterexample == nil {
				t.Errorf("%s: failed without a counterexample trace", c.name)
				continue
			}
			if err := eng.ReplayTrace(res.Counterexample); err != nil {
				t.Errorf("%s: counterexample does not replay: %v", c.name, err)
			}
		}
	}
}

// TestCounterexampleTraceGolden pins the exact counterexample traces of the
// two headline negative results — Theorem 1 (LR1 on the ring with an extra
// arc) and Theorem 2 (LR2 on the theta graph) — as JSON golden files: the
// scheduler-choice path, the outcome labels and probabilities, the rendered
// final state and the canonical final key are all part of the stable wire
// format. The traces are deterministic because the BFS state numbering and
// the path search are, for every worker count.
func TestCounterexampleTraceGolden(t *testing.T) {
	t.Parallel()
	ring3 := []dining.PhilID{0, 1, 2}
	cases := []struct {
		golden    string
		topo      *dining.Topology
		algorithm string
		protected []dining.PhilID
	}{
		{"trace_theorem1_lr1.golden.json", dining.Theorem1Minimal(), dining.LR1, ring3},
		{"trace_theorem2_lr2.golden.json", dining.Theorem2Minimal(), dining.LR2, nil},
	}
	for _, c := range cases {
		eng := mustEngine(t, c.topo, c.algorithm, dining.WithProtected(c.protected...))
		res := checkOne(t, eng, dining.StarvationTrap)
		if res.Passed {
			t.Fatalf("%s on %s: expected the starvation trap of the theorem", c.algorithm, c.topo.Name())
		}
		if res.Counterexample == nil {
			t.Fatalf("%s on %s: trap reported without a counterexample", c.algorithm, c.topo.Name())
		}
		// The replay test: re-execute the trace and land in the reported state.
		if err := eng.ReplayTrace(res.Counterexample); err != nil {
			t.Errorf("%s: counterexample replay: %v", c.golden, err)
		}
		checkGolden(t, c.golden, res.Counterexample)
	}
}

func TestEngineCheckWorkersYieldIdenticalResults(t *testing.T) {
	t.Parallel()
	ring3 := []dining.PhilID{0, 1, 2}
	base := mustEngine(t, dining.Theorem1Minimal(), dining.LR1,
		dining.WithProtected(ring3...), dining.WithWorkers(1))
	want, err := base.CheckAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		eng := mustEngine(t, dining.Theorem1Minimal(), dining.LR1,
			dining.WithProtected(ring3...), dining.WithWorkers(workers))
		got, err := eng.CheckAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Passed != want[i].Passed || got[i].Detail != want[i].Detail ||
				got[i].States != want[i].States || got[i].TrapStates != want[i].TrapStates {
				t.Errorf("workers=%d: result %s differs:\n got  %+v\n want %+v",
					workers, got[i].Property, got[i], want[i])
			}
			gotCx, wantCx := got[i].Counterexample, want[i].Counterexample
			if (gotCx == nil) != (wantCx == nil) {
				t.Errorf("workers=%d: %s counterexample presence differs", workers, got[i].Property)
				continue
			}
			if gotCx != nil && (gotCx.FinalKey != wantCx.FinalKey || len(gotCx.Steps) != len(wantCx.Steps)) {
				t.Errorf("workers=%d: %s counterexample differs", workers, got[i].Property)
			}
		}
	}
}

func TestCheckAllToleratesDuplicateNames(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Ring(3), dining.LR1)
	results, err := eng.CheckAll(context.Background(), dining.Progress, dining.Progress)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results for two requests", len(results))
	}
	for i, r := range results {
		if r.Property != dining.Progress || !r.Passed {
			t.Errorf("result %d: %+v; want a passing progress verdict", i, r)
		}
	}
}

func TestEngineCheckStatisticalProperties(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Theorem2Minimal(), dining.GDP1,
		dining.WithTrials(5), dining.WithMaxSteps(50_000), dining.WithSeed(7))
	results, err := eng.CheckAll(context.Background(), dining.StatisticalProgress, dining.StatisticalLockout)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Kind != dining.StatisticalProperty {
			t.Errorf("%s: kind %q", r.Property, r.Kind)
		}
		if !r.Passed {
			t.Errorf("%s failed for GDP1 on the theta graph: %s", r.Property, r.Detail)
		}
		if r.Trials != 5 {
			t.Errorf("%s: WithTrials(5) not honoured, ran %d trials", r.Property, r.Trials)
		}
		if r.Scheduler == "" {
			t.Errorf("%s: statistical results must name the scheduler", r.Property)
		}
		if r.States != 0 {
			t.Errorf("%s: statistical results must not claim an explored space", r.Property)
		}
	}
}

func TestEngineCheckContextCancellation(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Ring(3), dining.GDP2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.CheckAll(ctx); err == nil {
		t.Error("CheckAll ignored a cancelled context")
	}
}

func TestRegisterCustomProperty(t *testing.T) {
	t.Parallel()
	// A custom exhaustive property plugs into the registry and rides the
	// shared exploration of Engine.Check. The registry is process-global and
	// -cpu reruns the test in one process, so register only once.
	if !slices.Contains(dining.Properties(), "test-has-states") {
		dining.RegisterProperty(dining.PropertyFunc{
			PropName: "test-has-states",
			PropKind: dining.ExhaustiveProperty,
			Func: func(ctx context.Context, in dining.PropertyInput) (dining.PropertyResult, error) {
				return dining.PropertyResult{
					Property: "test-has-states",
					Kind:     dining.ExhaustiveProperty,
					Passed:   in.Space.NumStates() > 0,
					Detail:   "custom",
				}, nil
			},
		})
	}
	eng := mustEngine(t, dining.Ring(3), dining.LR1)
	results, err := eng.CheckAll(context.Background(), "test-has-states")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Passed {
		t.Errorf("custom property did not run: %+v", results)
	}
}

// builtinTopologies and builtinAlgorithms snapshot the registries at package
// initialization, before any test registers a plugin: the grid tests below
// run over exactly the built-in entries.
var (
	builtinTopologies = dining.Topologies()
	builtinAlgorithms = dining.Algorithms()
)

// TestLockoutFreedomStreamedMatchesSequential pins the determinism of the
// parallelized lockout-freedom check: the per-philosopher trap analyses run
// concurrently over par.Stream and settle in index order, and the verdict —
// including which philosopher is reported starvable and the exact
// counterexample trace — must match the sequential loop for every worker
// count. The grid is every built-in topology (default size) × every
// built-in algorithm, capped at the state bound of
// TestWorklistMatchesReferenceFixpoint, so passing, failing and truncated
// cells all occur. Each cell runs with no protected set (one analysis per
// philosopher) and with philosopher 0 protected, where lockout-freedom and
// starvation-trap share one memoized trap and race for it when the
// properties fan out.
func TestLockoutFreedomStreamedMatchesSequential(t *testing.T) {
	t.Parallel()
	maxStates := 2500
	if testing.Short() {
		maxStates = 1200
	}
	failing := 0
	for _, topoName := range builtinTopologies {
		topo, err := dining.NewTopology(topoName, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range builtinAlgorithms {
			for _, protected := range [][]dining.PhilID{nil, {0}} {
				engine := func(workers int) *dining.Engine {
					return mustEngine(t, topo, alg, dining.WithProtected(protected...),
						dining.WithMaxStates(maxStates), dining.WithWorkers(workers))
				}
				props := []string{dining.LockoutFreedom, dining.StarvationTrap}
				results, err := engine(1).CheckAll(context.Background(), props...)
				if err != nil {
					t.Fatal(err)
				}
				if !results[0].Passed {
					failing++
				}
				out, err := json.Marshal(results)
				if err != nil {
					t.Fatal(err)
				}
				seq := string(out)
				for _, workers := range []int{2, 3} {
					if got := mustCheckJSON(t, engine(workers), props...); got != seq {
						t.Errorf("%s/%s protected %v: lockout-freedom with %d workers diverged from the sequential loop:\n got  %s\n want %s",
							topo.Name(), alg, protected, workers, got, seq)
					}
				}
			}
		}
	}
	if failing == 0 {
		t.Error("no grid cell failed lockout-freedom; the grid no longer exercises the trap-selection path")
	}
}

// analyseSpace decides the four exhaustive properties on ss the way a
// dpserve cache hit does (Property.Check on a given space), runs
// FindStarvationTrapAgainst for every philosopher and reads the space's
// other memoized analyses, returning everything in JSON form. It reports
// failures with t.Error, so it may run on any goroutine.
func analyseSpace(t *testing.T, eng *dining.Engine, ss *dining.StateSpace) string {
	t.Helper()
	var out struct {
		Results    []dining.PropertyResult
		Traps      []any
		Deadlocks  []int
		DeadRegion []int
		Trap       any
		Path       any
	}
	for _, name := range dining.ExhaustiveProperties() {
		p, err := dining.LookupProperty(name)
		if err != nil {
			t.Error(err)
			return ""
		}
		res, err := p.Check(context.Background(), dining.PropertyInput{Engine: eng, Space: ss})
		if err != nil {
			t.Error(err)
			return ""
		}
		out.Results = append(out.Results, res)
	}
	for p := range eng.Topology().NumPhilosophers() {
		trap, err := ss.FindStarvationTrapAgainst([]dining.PhilID{dining.PhilID(p)})
		if err != nil {
			t.Error(err)
			return ""
		}
		out.Traps = append(out.Traps, trap)
	}
	out.Deadlocks = ss.DeadlockStates()
	out.DeadRegion = ss.DeadRegionStates()
	out.Trap = ss.FindStarvationTrap()
	cx, err := ss.CounterexampleTo("path", ss.NumStates()-1)
	out.Path = []any{cx, err == nil}
	js, err := json.Marshal(out)
	if err != nil {
		t.Error(err)
	}
	return string(js)
}

// TestSharedSpaceAnalysesConcurrent pins the analysis memo of a shared
// space, the situation of a dpserve cache entry: eight goroutines check the
// exhaustive properties and run every per-philosopher trap analysis on one
// space at once, and each must see exactly what a sequential run on a
// separately explored space sees. The instances cover reachable traps with
// counterexamples (Theorem 1), deadlocks and dead regions (naive-left-first)
// and a protected philosopher whose trap lockout-freedom and starvation-trap
// share (GDP1 with P0 protected). Afterwards every returned slice is
// mutated, and the next analysis must not see it.
func TestSharedSpaceAnalysesConcurrent(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		topo      *dining.Topology
		alg       string
		protected []dining.PhilID
	}{
		{dining.Theorem1Minimal(), dining.LR1, []dining.PhilID{0, 1, 2}},
		{dining.Ring(3), dining.NaiveLeftFirst, nil},
		{dining.Theorem2Minimal(), dining.GDP1, []dining.PhilID{0}},
	} {
		name := tc.topo.Name() + "/" + tc.alg
		eng := mustEngine(t, tc.topo, tc.alg, dining.WithProtected(tc.protected...), dining.WithWorkers(2))
		explore := func() *dining.StateSpace {
			ss, err := eng.Explore(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return ss
		}
		want := analyseSpace(t, eng, explore())
		shared := explore()
		got := make([]string, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = analyseSpace(t, eng, shared)
			}()
		}
		wg.Wait()
		for g, js := range got {
			if js != want {
				t.Errorf("%s: goroutine %d diverged from the sequential run:\n got  %s\n want %s", name, g, js, want)
			}
		}

		if dead := shared.DeadlockStates(); len(dead) > 0 {
			dead[0] = -1
		} else if tc.alg == dining.NaiveLeftFirst {
			t.Errorf("%s: no deadlock state; the instance no longer covers the deadlock slice", name)
		}
		if dead := shared.DeadRegionStates(); len(dead) > 0 {
			dead[0] = -1
		}
		trap := shared.FindStarvationTrap()
		if len(trap.CoveredPhilosophers) == 0 {
			t.Errorf("%s: trap covers no philosopher; nothing to mutate", name)
		} else {
			trap.CoveredPhilosophers[0] = 99
		}
		if trap, err := shared.FindStarvationTrapAgainst([]dining.PhilID{0}); err == nil && len(trap.CoveredPhilosophers) > 0 {
			trap.CoveredPhilosophers[0] = 99
		}
		if cx, err := shared.CounterexampleTo("path", shared.NumStates()-1); err == nil && len(cx.Steps) > 0 {
			cx.Steps[0].Phil = 99
		}
		if again := analyseSpace(t, eng, shared); again != want {
			t.Errorf("%s: mutating returned slices changed the next analysis:\n got  %s\n want %s", name, again, want)
		}
	}
}

// TestRecheckAllocs pins what the analysis memo buys a dpserve cache hit:
// once a space has been checked, checking the four exhaustive properties on
// it again formats stored verdicts and builds the counterexample traces,
// and allocates at most 64 KiB. The instance is E-T4's ring-3/GDP2 with P0
// protected (182,951 states, two failing properties). Before the memo, the
// re-check re-ran every analysis and allocated 8.1 MB here, mostly the
// shortest-path search's per-state arrays.
func TestRecheckAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	eng := mustEngine(t, dining.Ring(3), dining.GDP2, dining.WithProtected(0))
	ss, err := eng.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var props []dining.Property
	for _, name := range dining.ExhaustiveProperties() {
		p, err := dining.LookupProperty(name)
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	check := func() {
		for _, p := range props {
			if _, err := p.Check(context.Background(), dining.PropertyInput{Engine: eng, Space: ss}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check() // the first check computes and keeps every analysis
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		check()
	}
	runtime.ReadMemStats(&after)
	perCheck := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ring-3/GDP2 P0 protected, %d states: re-check allocates %d B", ss.NumStates(), perCheck)
	if perCheck > 64<<10 {
		t.Errorf("re-checking a checked space allocates %d B, over the 64 KiB budget — an analysis is re-running", perCheck)
	}
}

// TestEngineCheckShardsYieldIdenticalResults pins the shard-count
// determinism contract at the property layer: the sharded state-space
// stores change only the internal memory layout, so every verdict, state
// count and counterexample trace is identical for any WithShards value —
// including the default (match workers).
func TestEngineCheckShardsYieldIdenticalResults(t *testing.T) {
	t.Parallel()
	ring3 := []dining.PhilID{0, 1, 2}
	want := mustCheckJSON(t, mustEngine(t, dining.Theorem1Minimal(), dining.LR1,
		dining.WithProtected(ring3...), dining.WithWorkers(1), dining.WithShards(1)))
	for _, cfg := range []struct{ workers, shards int }{
		{1, 4}, {3, 0}, {3, 8}, {5, 64},
	} {
		got := mustCheckJSON(t, mustEngine(t, dining.Theorem1Minimal(), dining.LR1,
			dining.WithProtected(ring3...), dining.WithWorkers(cfg.workers), dining.WithShards(cfg.shards)))
		if got != want {
			t.Errorf("workers=%d shards=%d: results diverged from the sequential single-shard run",
				cfg.workers, cfg.shards)
		}
	}
}

func TestWithShardsRejectsNegative(t *testing.T) {
	t.Parallel()
	if _, err := dining.New(dining.Ring(3), dining.LR1, dining.WithShards(-1)); err == nil {
		t.Error("New accepted WithShards(-1)")
	}
}

// TestProgressCheckGDP1OnFigure1Topologies is Theorem 3 in Monte-Carlo
// form: under random fair scheduling GDP1 makes progress on every Figure 1
// topology in every trial of the statistical-progress property.
func TestProgressCheckGDP1OnFigure1Topologies(t *testing.T) {
	t.Parallel()
	for _, topo := range []*dining.Topology{dining.Figure1A(), dining.Figure1B(), dining.Figure1C(), dining.Figure1D()} {
		eng := mustEngine(t, topo, dining.GDP1, dining.WithTrials(30), dining.WithMaxSteps(50_000), dining.WithSeed(11))
		r := checkOne(t, eng, dining.StatisticalProgress)
		if !r.Passed || r.Failures != 0 || r.Trials != 30 {
			t.Errorf("GDP1 failed to progress on %s: %+v", topo.Name(), r)
		}
		var progressed, trials int
		var mean float64
		if _, err := fmt.Sscanf(r.Detail, "progress in %d/%d trials (mean steps to first meal %f)", &progressed, &trials, &mean); err != nil || mean <= 0 {
			t.Errorf("first-meal statistics missing for %s: %q", topo.Name(), r.Detail)
		}
	}
}

// TestProgressCheckDetectsDeadlock: the naive baseline deadlocks under
// round-robin, and the statistical-progress property must report the
// failures rather than hide them.
func TestProgressCheckDetectsDeadlock(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Ring(5), dining.NaiveLeftFirst, dining.WithScheduler(dining.RoundRobin),
		dining.WithTrials(5), dining.WithMaxSteps(20_000), dining.WithSeed(3))
	if r := checkOne(t, eng, dining.StatisticalProgress); r.Passed || r.Failures == 0 {
		t.Errorf("statistical progress passed for the deadlocking naive baseline: %+v", r)
	}
}

// TestLockoutCheckGDP2: under random fair scheduling GDP2 serves every
// philosopher of figure1a in every trial of the statistical-lockout
// property, with a plausible worst Jain index.
func TestLockoutCheckGDP2(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Figure1A(), dining.GDP2, dining.WithTrials(10), dining.WithMaxSteps(150_000), dining.WithSeed(5))
	r := checkOne(t, eng, dining.StatisticalLockout)
	if !r.Passed || r.Failures != 0 {
		t.Errorf("GDP2 statistical lockout failed: %+v", r)
	}
	var served, trials int
	var jain float64
	if _, err := fmt.Sscanf(r.Detail, "every philosopher served in %d/%d trials (worst Jain index %f)", &served, &trials, &jain); err != nil || jain <= 0 || jain > 1 {
		t.Errorf("implausible Jain index in %q", r.Detail)
	}
}
