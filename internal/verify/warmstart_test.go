package verify

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestWarmStartMatchesFreshWorlds pins that the trial pool is unobservable:
// a ProgressCheck run (whose trials clone the shared prototype world into
// recycled per-worker worlds) produces exactly the aggregates of a manual
// loop that rebuilds every world from the topology with the same per-trial
// seed derivation.
func TestWarmStartMatchesFreshWorlds(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials, maxSteps, seed = 20, 30_000, 9
	res, err := ProgressCheck{
		Topology:  topo,
		Algorithm: prog,
		Scheduler: randomSched,
		Trials:    trials,
		MaxSteps:  maxSteps,
		Seed:      seed,
		Workers:   3,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}

	var prop stats.Proportion
	var firstMeal stats.Running
	for i := 0; i < trials; i++ {
		s := uint64(seed) + uint64(i)*0x9e3779b9
		rng := prng.New(s)
		r, err := sim.Run(topo, prog, randomSched(rng.Split()), rng, sim.RunOptions{
			MaxSteps:           maxSteps,
			StopAfterTotalEats: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		prop.Add(r.Progress())
		if r.Progress() {
			firstMeal.Add(float64(r.FirstEatStep))
		}
	}
	if res.Proportion != prop {
		t.Errorf("proportion %+v, fresh-world loop %+v", res.Proportion, prop)
	}
	if math.Abs(res.StepsToFirstMeal.Mean()-firstMeal.Mean()) > 0 {
		t.Errorf("mean steps to first meal %v, fresh-world loop %v",
			res.StepsToFirstMeal.Mean(), firstMeal.Mean())
	}
	if len(res.Failures) != 0 {
		t.Errorf("GDP1 unexpectedly failed trials %v", res.Failures)
	}
}

// TestTrialWarmStartAllocs is the allocation-regression guard for the trial
// pool: with the pool warm, a statistical trial must not rebuild any world
// state from the topology, and — since trials run through sim.RunWorldInto
// against the slot's pooled Result — must not copy per-philosopher metric
// slices either. The trial RNG, scheduler RNG and scheduler are recycled in
// the slot too (trialSlot.prepare), and the step loop's outcome buffer rides
// the pooled Result, so the steady-state marginal cost of a trial is zero
// allocations; the budget below only absorbs the amortized fixed costs
// (pool and slot construction, result aggregation) spread over the trial
// count, and stays flat when the topology grows from 5 to 64 philosophers.
func TestTrialWarmStartAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	const maxAllocsPerTrial = 2.0
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 50
	for _, topo := range []*graph.Topology{graph.Ring(5), graph.Ring(64)} {
		checks := map[string]func() error{
			"progress": func() error {
				_, err := ProgressCheck{
					Topology:  topo,
					Algorithm: prog,
					Scheduler: randomSched,
					Trials:    trials,
					MaxSteps:  500,
					Seed:      17,
					Workers:   1,
				}.Run()
				return err
			},
			"lockout": func() error {
				_, err := LockoutCheck{
					Topology:  topo,
					Algorithm: prog,
					Scheduler: randomSched,
					Trials:    trials,
					MaxSteps:  500,
					Seed:      17,
					Workers:   1,
				}.Run()
				return err
			},
		}
		for name, run := range checks {
			allocs := testing.AllocsPerRun(3, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			perTrial := allocs / trials
			t.Logf("%s/%s: %.0f allocs over %d trials, %.1f allocs/trial", topo.Name(), name, allocs, trials, perTrial)
			if perTrial > maxAllocsPerTrial {
				t.Errorf("%s/%s: %.1f allocs/trial exceeds the %.0f budget", topo.Name(), name, perTrial, maxAllocsPerTrial)
			}
		}
	}
}

// closureSched is deliberately NOT resettable: it hides per-trial state in a
// closure, so the trial pool must fall back to reconstructing it through the
// factory each trial. The decisions mix the closure counter with the trial's
// scheduler RNG, so any stale state or stale RNG stream would change the
// aggregates.
func closureSched(rng *prng.Source) sim.Scheduler {
	next := 0
	return closureRobin(func(w *sim.World) graph.PhilID {
		next += 1 + rng.Intn(2)
		return graph.PhilID(next % len(w.Phils))
	})
}

type closureRobin func(w *sim.World) graph.PhilID

func (closureRobin) Name() string                     { return "closure-robin" }
func (f closureRobin) Next(w *sim.World) graph.PhilID { return f(w) }

// TestWarmStartNonResettableScheduler pins the factory-fallback path of the
// trial pool: a scheduler that does not implement sim.ResettableScheduler is
// rebuilt per trial, and the check still reproduces the fresh-world loop
// exactly.
func TestWarmStartNonResettableScheduler(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials, maxSteps, seed = 12, 20_000, 23
	res, err := ProgressCheck{
		Topology:  topo,
		Algorithm: prog,
		Scheduler: closureSched,
		Trials:    trials,
		MaxSteps:  maxSteps,
		Seed:      seed,
		Workers:   4,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var prop stats.Proportion
	for i := 0; i < trials; i++ {
		s := uint64(seed) + uint64(i)*0x9e3779b9
		rng := prng.New(s)
		r, err := sim.Run(topo, prog, closureSched(rng.Split()), rng, sim.RunOptions{
			MaxSteps:           maxSteps,
			StopAfterTotalEats: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		prop.Add(r.Progress())
	}
	if res.Proportion != prop {
		t.Errorf("proportion %+v, fresh-world loop %+v", res.Proportion, prop)
	}
}
