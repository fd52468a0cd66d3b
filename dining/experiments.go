package dining

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/modelcheck"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/verify"
)

// This file is the reproduction suite behind cmd/dpbench: one experiment per
// reproduced artifact of the paper (E-F1 … E-RT), each producing a Table.
// Every row of every experiment is an Engine built by ExperimentConfig.engine,
// so the suite runs the same program assembly, scheduler construction,
// simulation and exploration as Run, Trials and Check. Monte-Carlo rows keep
// their own seed schedules and stop rules and run on the warm-start trial
// harness that Trials and the statistical properties run on (sample);
// exhaustive rows explore the engine's state space and run the analysis of
// the starvation-trap property on it.

// ExperimentConfig controls how much work each experiment does.
type ExperimentConfig struct {
	// Quick reduces trial counts and skips the largest model-checking
	// instances so the whole suite finishes in seconds; the full
	// configuration is what dpbench prints without -quick.
	Quick bool
	// Seed is the base seed for all Monte-Carlo experiments.
	Seed uint64
	// Workers bounds the number of goroutines used for Monte-Carlo trials.
	// Zero means one per CPU; 1 forces sequential execution. Every table is
	// bit-identical whatever the value (see par.Trials).
	Workers int
	// Faults is an optional fault-model spec in the internal/fault grammar
	// (for example "crash-rejoin:0.05,0.5"); when non-empty every sequential
	// experiment runs on the perturbed transition system, so the tables show
	// how far the paper's guarantees survive crashes and delayed or lost
	// grants. E-RT's goroutines run the same perturbed program.
	Faults string
	// Symmetry quotients the model-checking experiments (E-T1, E-T2, E-T4)
	// by each topology's automorphism group (WithSymmetry). Verdict tables
	// are identical; the reported state counts become per-orbit counts.
	Symmetry bool
}

func (c ExperimentConfig) trials(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// engine builds the engine of one experiment row: the row's own options plus
// the suite-wide fault model and, when set, the symmetry quotient.
func (c ExperimentConfig) engine(topo *Topology, algorithm string, opts ...Option) (*Engine, error) {
	opts = append(opts, WithFaults(c.Faults))
	if c.Symmetry {
		opts = append(opts, WithSymmetry())
	}
	return New(topo, algorithm, opts...)
}

// trapCheck explores the row engine's state space and runs the analysis of
// the starvation-trap property on it. wins reports whether a fair adversary
// can starve the protected set forever.
func trapCheck(e *Engine) (states int, trap modelcheck.Trap, wins bool, err error) {
	ss, err := e.explore(context.TODO())
	if err != nil {
		return 0, trap, false, err
	}
	trap = ss.FindStarvationTrap()
	return ss.NumStates(), trap, trap.Exists && trap.Reachable, nil
}

// Experiment is one entry of the reproduction suite.
type Experiment struct {
	// ID is the identifier dpbench -experiment selects (for example "E-T3").
	ID string
	// Title is a one-line description.
	Title string
	// Reproduces names the paper artifact.
	Reproduces string
	// Run executes the experiment.
	Run func(cfg ExperimentConfig) (*Table, error)
}

// Experiments returns the full reproduction suite in report order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "E-F1", Title: "Figure 1 topology inventory", Reproduces: "Figure 1", Run: runFigure1},
		{ID: "E-S3", Title: "Fair adversary versus LR1 on the 6-philosopher / 3-fork system", Reproduces: "Section 3 example (States 1-6)", Run: runSection3},
		{ID: "E-T1", Title: "Theorem 1: rings with a shared fork defeat LR1", Reproduces: "Theorem 1 / Figure 2", Run: runTheorem1},
		{ID: "E-T2", Title: "Theorem 2: rings with an extra path defeat LR2", Reproduces: "Theorem 2 / Figure 3", Run: runTheorem2},
		{ID: "E-T3", Title: "Theorem 3: GDP1 guarantees progress", Reproduces: "Theorem 3 (and its probability bound)", Run: runTheorem3},
		{ID: "E-T4", Title: "Theorem 4: GDP2 lockout-freedom", Reproduces: "Theorem 4", Run: runTheorem4},
		{ID: "E-B1", Title: "Efficiency of the four algorithms on classic rings", Reproduces: "Section 6 (efficiency, future work)", Run: runEfficiency},
		{ID: "E-B2", Title: "Effect of the number range m on GDP1", Reproduces: "Theorem 3 bound m!/(m^k (m-k)!)", Run: runNumberRangeSweep},
		{ID: "E-RT", Title: "Concurrent goroutine runtime throughput", Reproduces: "implementation substrate (Section 1 motivation)", Run: runRuntimeThroughput},
	}
}

// run executes the experiment and stamps its identity on the table.
func (x Experiment) run(cfg ExperimentConfig) (*Table, error) {
	table, err := x.Run(cfg)
	if err != nil {
		return nil, err
	}
	table.ID, table.Title, table.Reproduces = x.ID, x.Title, x.Reproduces
	return table, nil
}

// RunAll executes every experiment and returns the tables in order.
func RunAll(cfg ExperimentConfig) ([]*Table, error) {
	var out []*Table
	for _, exp := range Experiments() {
		table, err := exp.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("dining: experiment %s: %w", exp.ID, err)
		}
		out = append(out, table)
	}
	return out, nil
}

// RunByID executes a single experiment.
func RunByID(id string, cfg ExperimentConfig) (*Table, error) {
	for _, exp := range Experiments() {
		if exp.ID == id {
			return exp.run(cfg)
		}
	}
	return nil, fmt.Errorf("dining: unknown experiment %q", id)
}

// --- E-F1 ---

func runFigure1(ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"topology", "philosophers", "forks", "max fork degree", "simple cycles", "Theorem 1 structure", "Theorem 2 structure"}}
	for _, topo := range graph.Figure1() {
		t.AddRow(topo.Name(), topo.NumPhilosophers(), topo.NumForks(), topo.MaxDegree(),
			topo.CountCycles(0), topo.SatisfiesTheorem1(), topo.SatisfiesTheorem2())
	}
	t.AddNote("Figure 1c and 1d are reconstructions that keep the published philosopher/fork counts and the structural features used in the text (see graph.Figure1C/Figure1D).")
	t.AddNote("every Figure 1 topology voids the Lehmann-Rabin guarantee (Theorem 1 structure present).")
	return t, nil
}

// adversaryStarvationRate measures how often the bounded-fair greedy
// adversary prevents every protected philosopher of algorithm on topo from
// eating within steps atomic steps.
func (c ExperimentConfig) adversaryStarvationRate(topo *Topology, algorithm string, protected []PhilID, trials int, steps int64, seed uint64) (stats.Proportion, error) {
	var prop stats.Proportion
	e, err := c.engine(topo, algorithm, WithScheduler(Adversary), WithProtected(protected...))
	if err != nil {
		return prop, err
	}
	runs, err := sample(context.TODO(), e, c.Workers, trials, strided(seed, 7919), sim.RunOptions{MaxSteps: steps},
		func(_ int, _ uint64, res *SimResult) bool { return starved(res, protected) })
	for _, s := range runs {
		prop.Add(s)
	}
	return prop, err
}

// starved reports whether no protected philosopher (no philosopher at all
// when protected is empty) ate during the run.
func starved(res *SimResult, protected []PhilID) bool {
	if len(protected) == 0 {
		return res.TotalEats == 0
	}
	for _, p := range protected {
		if res.EatsBy[p] > 0 {
			return false
		}
	}
	return true
}

// --- E-S3 ---

func runSection3(cfg ExperimentConfig) (*Table, error) {
	trials := cfg.trials(200, 25)
	steps := int64(30_000)
	topo := graph.Figure1A()
	t := &Table{Header: []string{"algorithm", "no-progress runs", "rate (Wilson 95%)", "paper bound"}}
	bound := verify.Section3Bound(0.5)
	for _, name := range []string{LR1, LR2, GDP1, GDP2} {
		prop, err := cfg.adversaryStarvationRate(topo, name, nil, trials, steps, cfg.Seed+11)
		if err != nil {
			return nil, err
		}
		paperBound := "progress w.p. 1 (Theorems 3/4)"
		if name == LR1 || name == LR2 {
			paperBound = fmt.Sprintf(">= %.4f (Section 3)", bound)
		}
		t.AddRow(name, fmt.Sprintf("%d/%d", prop.Successes(), prop.Trials()), prop.String(), paperBound)
	}
	t.AddNote("adversary: greedy livelock advisor wrapped in a fixed fairness window of %d steps; every philosopher acts at least once per window, so every produced computation is fair.", 512)
	t.AddNote("the paper proves the no-progress probability is at least 1/4·Π(1−p^k) ≥ 1/16 for its explicit scheduler; the adaptive adversary does much better, while GDP1/GDP2 always progress, matching Theorems 3 and 4.")
	t.AddNote("runs of %d atomic steps; a run counts as no-progress when no philosopher completed a meal.", steps)
	return t, nil
}

// --- E-T1 ---

func runTheorem1(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"instance", "algorithm", "protected", "method", "fair adversary wins?", "detail"}}
	ring3 := []PhilID{0, 1, 2}
	cases := []struct {
		topo      *Topology
		algorithm string
		protected []PhilID
		skipQuick bool
	}{
		{graph.Theorem1Minimal(), LR1, ring3, false},
		{graph.RingWithPendant(3), LR1, ring3, false},
		{graph.Ring(3), LR1, nil, false},
		{graph.RingWithPendant(3), LR2, ring3, true}, // ~0.5M states
		{graph.Theorem1Minimal(), GDP1, nil, false},
	}
	for _, c := range cases {
		if cfg.Quick && c.skipQuick {
			continue
		}
		e, err := cfg.engine(c.topo, c.algorithm, WithProtected(c.protected...))
		if err != nil {
			return nil, err
		}
		states, trap, wins, err := trapCheck(e)
		if err != nil {
			return nil, err
		}
		detail := fmt.Sprintf("%d states, safe region %d, trap %d", states, trap.SafeRegionStates, trap.States)
		t.AddRow(c.topo.Name(), c.algorithm, protectedLabel(c.protected), "exhaustive model check", wins, detail)
	}

	// Empirical rate of the heuristic adversary on a larger Theorem 1 instance.
	trials := cfg.trials(100, 15)
	ringIDs := make([]PhilID, 9)
	for i := range ringIDs {
		ringIDs[i] = PhilID(i)
	}
	prop, err := cfg.adversaryStarvationRate(graph.Figure1D(), LR1, ringIDs, trials, 30_000, cfg.Seed+23)
	if err != nil {
		return nil, err
	}
	t.AddRow(graph.Figure1D().Name(), LR1, "ring only", "heuristic adversary simulation", prop.Successes() > 0, prop.String())

	t.AddNote("the model checker computes the exact answer to \"does a fair scheduler have a strategy that forever prevents every protected philosopher from eating (with positive probability)?\" — a starvation trap is an end component of the no-protected-meal sub-MDP covering every philosopher.")
	t.AddNote("LR1 admits a trap exactly on the topologies Theorem 1 describes, and not on the classic ring (Lehmann & Rabin's original guarantee); GDP1 admits none even there.")
	t.AddNote("the heuristic greedy adversary used for larger instances implements the rotating pattern of Figure 2 only partially; its empirical success rate is a lower bound on the adversary's power.")
	return t, nil
}

// --- E-T2 ---

func runTheorem2(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"instance", "algorithm", "method", "fair adversary wins?", "detail"}}
	theta := graph.Theorem2Minimal()
	for _, name := range []string{LR1, LR2, GDP1, GDP2} {
		e, err := cfg.engine(theta, name)
		if err != nil {
			return nil, err
		}
		states, trap, wins, err := trapCheck(e)
		if err != nil {
			return nil, err
		}
		t.AddRow(theta.Name(), name, "exhaustive model check", wins, fmt.Sprintf("%d states, trap %d", states, trap.States))
	}
	trials := cfg.trials(200, 25)
	prop, err := cfg.adversaryStarvationRate(theta, LR2, nil, trials, 30_000, cfg.Seed+31)
	if err != nil {
		return nil, err
	}
	t.AddRow(theta.Name(), LR2, "heuristic adversary simulation", prop.Successes() > 0, prop.String())
	t.AddNote("the minimal Theorem 2 instance is the theta graph: two forks shared by three philosophers (a ring plus a third path).")
	t.AddNote("LR2's guest books never help: no protected philosopher ever eats inside the trap, so they remain empty forever — exactly the observation in the proof of Theorem 2.")
	return t, nil
}

// --- E-T3 ---

func runTheorem3(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"topology", "scheduler", "trials with progress", "mean steps to first meal"}}
	trials := cfg.trials(100, 15)
	topos := []*Topology{graph.Figure1A(), graph.Figure1B(), graph.Figure1C(), graph.Figure1D(), graph.Ring(7), graph.RandomMultigraph(18, 7, 4242)}
	for _, topo := range topos {
		for _, kind := range []string{Random, RoundRobin, Adversary} {
			e, err := cfg.engine(topo, GDP1, WithScheduler(kind))
			if err != nil {
				return nil, err
			}
			steps, err := sample(context.TODO(), e, cfg.Workers, trials, strided(cfg.Seed, 131),
				sim.RunOptions{MaxSteps: 60_000, StopAfterTotalEats: 1}, firstMealStep)
			if err != nil {
				return nil, err
			}
			progressed, mean := firstMeals(steps)
			t.AddRow(topo.Name(), kind, fmt.Sprintf("%d/%d", progressed, trials), fmt.Sprintf("%.1f", mean))
		}
	}
	t.AddNote("Theorem 3 asserts progress with probability 1 under every fair scheduler; every trial of every configuration above made progress, including under the adversary that defeats LR1.")
	return t, nil
}

// --- E-T4 ---

func runTheorem4(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"instance", "variant", "method", "individual starvation possible?", "detail"}}
	type variant struct {
		topo      *Topology
		label     string
		algorithm string
		opts      AlgorithmOptions
	}
	const asPrinted, bothForks = "GDP2 as printed (courtesy on first fork)", "GDP2 with courtesy on both forks"
	// Exhaustive checks on the minimal generalized instance and, in the full
	// configuration, the classic ring.
	theta, ring := graph.Theorem2Minimal(), graph.Ring(3)
	variants := []variant{
		{theta, asPrinted, GDP2, AlgorithmOptions{}},
		{theta, bothForks, GDP2, AlgorithmOptions{CourtesyOnBothForks: true}},
	}
	if !cfg.Quick {
		variants = append(variants,
			variant{ring, asPrinted, GDP2, AlgorithmOptions{}},
			variant{ring, bothForks, GDP2, AlgorithmOptions{CourtesyOnBothForks: true}},
			variant{ring, "GDP1 (no courtesy)", GDP1, AlgorithmOptions{}})
	}
	for _, v := range variants {
		e, err := cfg.engine(v.topo, v.algorithm, WithAlgorithmOptions(v.opts), WithProtected(0))
		if err != nil {
			return nil, err
		}
		states, _, wins, err := trapCheck(e)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.topo.Name(), v.label, "exhaustive model check", wins, fmt.Sprintf("%d states", states))
	}

	// Monte-Carlo lockout check under fair (non-adversarial) schedulers.
	trials := cfg.trials(50, 8)
	for _, topo := range []*Topology{graph.Figure1A(), graph.RingWithChord(6, 3)} {
		e, err := cfg.engine(topo, GDP2)
		if err != nil {
			return nil, err
		}
		s, err := sampleLockout(context.TODO(), e, cfg.Workers, trials, 150_000, strided(cfg.Seed+77, statSeedStride))
		if err != nil {
			return nil, err
		}
		t.AddRow(topo.Name(), "GDP2 as printed", "Monte-Carlo lockout check (random fair scheduler)",
			s.failures > 0, fmt.Sprintf("all-fed rate %s, worst Jain %.3f", s.fed.String(), s.worstJain))
	}

	t.AddNote("REPRODUCTION FINDING: reading Tables 2/4 literally, Cond(fork) guards only the first fork. The model checker then finds a fair scheduler that starves an individual GDP2 philosopher on the classic ring (both neighbours always acquire the fork they share with the victim as their second fork, which is never courtesy-checked). Checking the courtesy condition on both acquisitions removes every such trap we could explore. Under non-adversarial fair schedulers GDP2 as printed serves everyone, which is why simulation alone would not have caught this.")
	t.AddNote("GDP1 admits individual starvation even on the theta graph — expected, since the paper only claims progress for GDP1 (Section 5 motivates GDP2 with exactly this).")
	return t, nil
}

// --- E-B1 ---

func runEfficiency(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"ring size", "algorithm", "steps per meal", "mean wait (steps)", "Jain fairness"}}
	trials := cfg.trials(10, 3)
	sizes := []int{5, 11, 25}
	if cfg.Quick {
		sizes = []int{5, 11}
	}
	for _, size := range sizes {
		topo := graph.Ring(size)
		for _, name := range []string{LR1, LR2, GDP1, GDP2, OrderedForks, TicketBox} {
			e, err := cfg.engine(topo, name, WithScheduler(Random))
			if err != nil {
				return nil, err
			}
			results, err := sample(context.TODO(), e, cfg.Workers, trials, strided(cfg.Seed, 997),
				sim.RunOptions{MaxSteps: 50_000}, newTrialResult)
			if err != nil {
				return nil, err
			}
			var stepsPerMeal, wait, jain stats.Running
			for _, res := range results {
				if res.TotalEats > 0 {
					stepsPerMeal.Add(float64(res.Steps) / float64(res.TotalEats))
					wait.Add(res.MeanWaitSteps)
					jain.Add(stats.JainIndex(res.EatsBy))
				}
			}
			t.AddRow(size, name, fmt.Sprintf("%.1f", stepsPerMeal.Mean()), fmt.Sprintf("%.1f", wait.Mean()), fmt.Sprintf("%.3f", jain.Mean()))
		}
	}
	t.AddNote("the paper leaves efficiency as future work (Section 6); these numbers quantify the price of the generalized guarantees on the classic ring under a uniformly random fair scheduler.")
	t.AddNote("GDP1/GDP2 pay a constant-factor overhead over LR1/LR2 for the nr bookkeeping, and the courteous variants trade throughput for fairness (higher Jain index).")
	return t, nil
}

// --- E-B2 ---

func runNumberRangeSweep(cfg ExperimentConfig) (*Table, error) {
	t := &Table{Header: []string{"topology", "m", "analytic distinct-draw bound", "measured progress trials", "mean steps to first meal"}}
	trials := cfg.trials(60, 10)
	topo := graph.Figure1A()
	k := topo.NumForks()
	for _, mult := range []int{1, 2, 4, 8} {
		m := k * mult
		e, err := cfg.engine(topo, GDP1, WithAlgorithmOptions(AlgorithmOptions{M: m}), WithScheduler(Adversary))
		if err != nil {
			return nil, err
		}
		steps, err := sample(context.TODO(), e, cfg.Workers, trials, strided(cfg.Seed, 313),
			sim.RunOptions{MaxSteps: 60_000, StopAfterTotalEats: 1}, firstMealStep)
		if err != nil {
			return nil, err
		}
		progressed, mean := firstMeals(steps)
		bound := verify.DistinctNumberBound(m, k)
		t.AddRow(topo.Name(), m, fmt.Sprintf("%.3f", bound), fmt.Sprintf("%d/%d", progressed, trials), fmt.Sprintf("%.1f", mean))
	}
	t.AddNote("the Theorem 3 progress bound improves with m (the probability that k random numbers are pairwise distinct, m!/(mᵏ(m−k)!)); progress itself holds for every m ≥ k, as predicted.")
	return t, nil
}

// --- E-RT ---

func runRuntimeThroughput(cfg ExperimentConfig) (*Table, error) {
	header := []string{"topology", "algorithm", "meals/second", "Jain fairness", "starved"}
	if cfg.Faults != "" {
		header = append(header, "crashes", "rejoins")
	}
	t := &Table{Header: header}
	var faults string // the canonical spec of cfg.Faults
	duration := 400 * time.Millisecond
	if cfg.Quick {
		duration = 150 * time.Millisecond
	}
	for _, topo := range []*Topology{graph.Ring(8), graph.Figure1A()} {
		for _, name := range []string{LR1, LR2, GDP1, GDP2, OrderedForks} {
			e, err := cfg.engine(topo, name, WithSeed(cfg.Seed+5))
			if err != nil {
				return nil, err
			}
			faults = e.Faults()
			metrics, err := e.RunConcurrent(context.TODO(), duration, 0)
			if err != nil {
				return nil, err
			}
			row := []any{topo.Name(), name, fmt.Sprintf("%.0f", metrics.MealsPerSecond), fmt.Sprintf("%.3f", metrics.JainIndex), len(metrics.Starved)}
			if cfg.Faults != "" {
				var crashes, rejoins int64
				for p := range metrics.Crashes {
					crashes += metrics.Crashes[p]
					rejoins += metrics.Rejoins[p]
				}
				row = append(row, crashes, rejoins)
			}
			t.AddRow(row...)
		}
	}
	if faults != "" {
		t.AddNote("fault injection active (%s): the goroutines run the fault-wrapped program of the other experiments, so every rate applies per step, drawn from each philosopher's own seeded stream.", faults)
	}
	t.AddNote("philosophers are goroutines running the same sim.Program as the simulator and the model checker, forks are mutexes, and the Go scheduler provides the (benign) adversary. Absolute throughput depends on the host; the relevant shape is that all four paper algorithms sustain comparable throughput and starve nobody.")
	return t, nil
}

func protectedLabel(protected []PhilID) string {
	if len(protected) == 0 {
		return "all"
	}
	return fmt.Sprintf("%v", protected)
}
