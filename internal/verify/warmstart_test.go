package verify

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// summary is a test fold that copies every field of a trial's recycled
// Result except the final world.
type summary struct {
	Steps, TotalEats, FirstEatStep, MaxScheduleGap int64
	EatsBy, FirstEatBy, ScheduledCount             []int64
	MeanWaitSteps                                  float64
	Starved                                        []graph.PhilID
	Reason                                         sim.StopReason
	Scheduler                                      string
}

func summarize(_ int, _ uint64, r *sim.Result) summary {
	return summary{
		Steps: r.Steps, TotalEats: r.TotalEats, FirstEatStep: r.FirstEatStep, MaxScheduleGap: r.MaxScheduleGap,
		EatsBy:         slices.Clone(r.EatsBy),
		FirstEatBy:     slices.Clone(r.FirstEatBy),
		ScheduledCount: slices.Clone(r.ScheduledCount),
		MeanWaitSteps:  r.MeanWaitSteps,
		Starved:        slices.Clone(r.Starved),
		Reason:         r.Reason,
		Scheduler:      r.SchedulerName,
	}
}

// freshTrials is the reference the harness must reproduce: every trial
// rebuilds its world from the topology and draws a new scheduler.
func freshTrials(t *testing.T, b Batch, n int) []summary {
	t.Helper()
	out := make([]summary, n)
	for i := range out {
		rng := prng.New(b.Seed(i))
		r, err := sim.Run(b.Topology, b.Program, b.Scheduler(rng.Split()), rng, b.Options)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = summarize(i, b.Seed(i), r)
	}
	return out
}

func checkSeeds(seed uint64) func(int) uint64 {
	return func(i int) uint64 { return seed + uint64(i)*0x9e3779b9 }
}

// TestWarmStartMatchesFreshWorlds pins that the trial pool is unobservable:
// Trials (whose trials clone the shared prototype world into recycled
// per-worker worlds) yields, for every trial, exactly the summary of a
// manual loop that rebuilds every world from the topology with the same
// per-trial seed, and so does every aggregate folded over them in order.
func TestWarmStartMatchesFreshWorlds(t *testing.T) {
	t.Parallel()
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20
	b := Batch{
		Topology:  graph.Figure1A(),
		Program:   prog,
		Scheduler: randomSched,
		Options:   sim.RunOptions{MaxSteps: 30_000, StopAfterTotalEats: 1},
		Seed:      checkSeeds(9),
		Workers:   3,
	}
	got, err := Collect(context.Background(), b, trials, summarize)
	if err != nil {
		t.Fatal(err)
	}
	want := freshTrials(t, b, trials)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-started trials differ from the fresh-world loop:\ngot  %+v\nwant %+v", got, want)
	}
	var firstMeal stats.Running
	for _, s := range got {
		if s.TotalEats == 0 {
			t.Errorf("GDP1 unexpectedly made no progress in a trial: %+v", s)
		}
		firstMeal.Add(float64(s.FirstEatStep))
	}
	if firstMeal.Mean() <= 0 {
		t.Errorf("mean steps to first meal %v", firstMeal.Mean())
	}
}

// TestTrialWarmStartAllocs is the allocation-regression guard for the trial
// pool: with the pool warm, a trial must not rebuild any world state from
// the topology, and — since trials run through sim.RunWorldInto against the
// slot's pooled Result — must not copy per-philosopher metric slices
// either. The trial RNG, scheduler RNG and scheduler are recycled in the
// slot too (trialSlot.prepare), and the step loop's outcome buffer rides
// the pooled Result, so with folds that keep no slices (the progress and
// lockout folds of the statistical properties) the steady-state marginal
// cost of a trial is zero allocations; the budget below only absorbs the
// amortized fixed costs (pool, prototype and slot construction, the
// collected slice) spread over the trial count, and stays flat when the
// topology grows from 5 to 64 philosophers.
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
	type lockout struct {
		fed  bool
		jain float64
	}
	for _, topo := range []*graph.Topology{graph.Ring(5), graph.Ring(64)} {
		b := Batch{Topology: topo, Program: prog, Scheduler: randomSched, Seed: checkSeeds(17), Workers: 1}
		checks := map[string]func() error{
			"progress": func() error {
				b := b
				b.Options = sim.RunOptions{MaxSteps: 500, StopAfterTotalEats: 1}
				_, err := Collect(context.Background(), b, trials, func(_ int, _ uint64, r *sim.Result) int64 {
					if !r.Progress() {
						return -1
					}
					return r.FirstEatStep
				})
				return err
			},
			"lockout": func() error {
				b := b
				b.Options = sim.RunOptions{MaxSteps: 500}
				_, err := Collect(context.Background(), b, trials, func(_ int, _ uint64, r *sim.Result) lockout {
					return lockout{fed: slices.Min(r.EatsBy) > 0, jain: stats.JainIndex(r.EatsBy)}
				})
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
// results.
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
// rebuilt per trial, and Trials still reproduces the fresh-world loop
// exactly.
func TestWarmStartNonResettableScheduler(t *testing.T) {
	t.Parallel()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 12
	b := Batch{
		Topology:  graph.Figure1A(),
		Program:   prog,
		Scheduler: closureSched,
		Options:   sim.RunOptions{MaxSteps: 20_000, StopAfterTotalEats: 1},
		Seed:      checkSeeds(23),
		Workers:   4,
	}
	got, err := Collect(context.Background(), b, trials, summarize)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshTrials(t, b, trials); !reflect.DeepEqual(got, want) {
		t.Errorf("warm-started trials differ from the fresh-world loop:\ngot  %+v\nwant %+v", got, want)
	}
}
