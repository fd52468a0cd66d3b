package dining_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/dining"
	"repro/internal/algo"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// trialsByIndex collects an Engine.Trials stream in trial-index order,
// failing the test on an error, a repeated index or a missing one.
func trialsByIndex(t *testing.T, eng *dining.Engine, n int) []dining.TrialResult {
	t.Helper()
	got := make([]dining.TrialResult, n)
	seen := make([]bool, n)
	for tr, err := range eng.Trials(context.Background(), n) {
		if err != nil {
			t.Fatal(err)
		}
		if seen[tr.Trial] {
			t.Fatalf("trial %d yielded twice", tr.Trial)
		}
		seen[tr.Trial] = true
		got[tr.Trial] = tr
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("trial %d never yielded", i)
		}
	}
	return got
}

// freshTrialResult is the stream entry a fresh-world run with the given seed
// must produce: the reference every Engine.Trials entry is held to.
func freshTrialResult(trial int, seed uint64, res *sim.Result) dining.TrialResult {
	return dining.TrialResult{
		Trial:          trial,
		Seed:           seed,
		Topology:       res.Topology,
		Algorithm:      res.Algorithm,
		Scheduler:      res.SchedulerName,
		Steps:          res.Steps,
		TotalEats:      res.TotalEats,
		EatsBy:         res.EatsBy,
		FirstEatStep:   res.FirstEatStep,
		MeanWaitSteps:  res.MeanWaitSteps,
		MaxScheduleGap: res.MaxScheduleGap,
		Starved:        res.Starved,
		Reason:         string(res.Reason),
	}
}

// TestTrialsBitIdenticalToParallelTrials is the determinism pin of the
// streaming engine: for any worker count, collecting an Engine.Trials stream
// by index must reproduce a sequential reference loop exactly — trial i seeds
// a random source with base + i*0x9e3779b97f4a7c15, draws the scheduler from
// a split of it and runs sim.Run — same seeds, same meals, same
// floating-point aggregates.
func TestTrialsBitIdenticalToParallelTrials(t *testing.T) {
	t.Parallel()
	const trials = 13
	const steps = 8_000
	topo := dining.Ring(5)

	want := make([]dining.TrialResult, trials)
	for i := range want {
		prog, err := algo.New("GDP2", algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seed := 9 + uint64(i)*0x9e3779b97f4a7c15
		rng := prng.New(seed)
		s, err := sched.New("random", sched.Config{RNG: rng.Split()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(topo, prog, s, rng, sim.RunOptions{MaxSteps: steps})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = freshTrialResult(i, seed, res)
	}

	for _, workers := range []int{1, 3, 8} {
		eng, err := dining.New(topo, dining.GDP2,
			dining.WithSeed(9),
			dining.WithWorkers(workers),
			dining.WithMaxSteps(steps))
		if err != nil {
			t.Fatal(err)
		}
		got := trialsByIndex(t, eng, trials)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: trial %d differs from the sequential reference:\ngot  %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRepeatParallelMatchesSequentialResults pins that re-running any single
// trial of a parallel Trials stream on its own — an engine whose base seed
// is the trial's derived seed — reproduces the result at that index exactly.
func TestRepeatParallelMatchesSequentialResults(t *testing.T) {
	t.Parallel()
	const steps = 5_000
	eng, err := dining.New(dining.Ring(5), dining.GDP2,
		dining.WithScheduler("random"), dining.WithSeed(7), dining.WithWorkers(8), dining.WithMaxSteps(steps))
	if err != nil {
		t.Fatal(err)
	}
	results := trialsByIndex(t, eng, 12)
	for _, i := range []int{0, 5, 11} {
		seed := 7 + uint64(i)*0x9e3779b97f4a7c15
		single, err := dining.New(dining.Ring(5), dining.GDP2,
			dining.WithScheduler("random"), dining.WithSeed(seed), dining.WithMaxSteps(steps))
		if err != nil {
			t.Fatal(err)
		}
		res, err := single.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := freshTrialResult(i, seed, res); !reflect.DeepEqual(results[i], want) {
			t.Errorf("trial %d: parallel result %+v != single run %+v", i, results[i], want)
		}
	}
}

// nonResettable is a registered scheduler that does NOT implement
// sim.ResettableScheduler: it hides per-run state in a closure and mixes it
// with the run's scheduler RNG, so the trial harness must rebuild it for
// every trial, and a stale instance or stream would change the results.
const nonResettable = "test-non-resettable"

type closureScheduler func(w *sim.World) dining.PhilID

func (closureScheduler) Name() string                      { return nonResettable }
func (f closureScheduler) Next(w *sim.World) dining.PhilID { return f(w) }

func registerNonResettable() {
	if slices.Contains(dining.Schedulers(), nonResettable) {
		return // -cpu reruns the test in one process
	}
	dining.RegisterScheduler(nonResettable, func(cfg dining.SchedulerConfig) dining.Scheduler {
		next := 0
		return closureScheduler(func(w *sim.World) dining.PhilID {
			next += 1 + cfg.RNG.Intn(2)
			return dining.PhilID(next % len(w.Phils))
		})
	})
}

// TestTrialsMatchFreshWorldGrid pins that Engine.Trials, whose trials run
// on the warm-start harness (a cloned prototype world, a recycled run
// summary and a reset or rebuilt scheduler per worker), is bit-identical to
// a fresh-world sim.Run loop: for every built-in scheduler and a registered
// non-resettable one, without faults and under a crash-family and the
// delayed-grants fault model, at one and at three workers.
func TestTrialsMatchFreshWorldGrid(t *testing.T) {
	t.Parallel()
	registerNonResettable()
	var schedulers []string
	for _, name := range dining.Schedulers() {
		if !strings.HasPrefix(name, "test-") {
			schedulers = append(schedulers, name)
		}
	}
	schedulers = append(schedulers, nonResettable)
	const trials, steps, seed = 6, 3_000, 21
	topo := dining.Figure1A()
	for _, faults := range []string{"", "crash-rejoin:0.05,0.5", "delayed-grants:0.2,2"} {
		prog, err := dining.NewAlgorithm(dining.GDP2, dining.AlgorithmOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if faults != "" {
			model, err := dining.NewFaultFromSpec(faults)
			if err != nil {
				t.Fatal(err)
			}
			prog = model.Wrap(topo, prog)
		}
		for _, name := range schedulers {
			want := make([]dining.TrialResult, trials)
			for i := range want {
				s := seed + uint64(i)*0x9e3779b97f4a7c15
				rng := prng.New(s)
				scheduler, err := dining.NewScheduler(name, dining.SchedulerConfig{RNG: rng.Split()})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(topo, prog, scheduler, rng, sim.RunOptions{MaxSteps: steps})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = freshTrialResult(i, s, res)
			}
			for _, workers := range []int{1, 3} {
				eng, err := dining.New(topo, dining.GDP2, dining.WithScheduler(name), dining.WithSeed(seed),
					dining.WithMaxSteps(steps), dining.WithWorkers(workers), dining.WithFaults(faults))
				if err != nil {
					t.Fatal(err)
				}
				got := trialsByIndex(t, eng, trials)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s/faults %q/workers=%d: trial %d differs from the fresh-world run:\ngot  %+v\nwant %+v",
							name, faults, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestEngineTrialsAllocs pins the cost of Engine.Trials on the warm-start
// harness: with one worker, a trial recycles its world, run summary and
// scheduler, and allocates only the stream entry's copies of its slices and
// whatever the scheduler's Name builds (the adversary's name is formatted
// per run).
func TestEngineTrialsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	const trials = 20
	for _, tc := range []struct {
		topo      *dining.Topology
		algorithm string
		scheduler string
		steps     int64
		budget    float64
	}{
		{dining.Figure1A(), dining.LR1, dining.Adversary, 30_000, 10},
		{dining.Ring(5), dining.GDP2, dining.Random, 20_000, 6},
	} {
		eng, err := dining.New(tc.topo, tc.algorithm, dining.WithScheduler(tc.scheduler),
			dining.WithSeed(5), dining.WithMaxSteps(tc.steps), dining.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, err := range eng.Trials(context.Background(), trials) {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		perTrial := allocs / trials
		t.Logf("%s/%s/%s: %.1f allocs/trial", tc.topo.Name(), tc.algorithm, tc.scheduler, perTrial)
		if perTrial > tc.budget {
			t.Errorf("%s/%s/%s: %.1f allocs/trial exceeds the budget of %.0f", tc.topo.Name(), tc.algorithm, tc.scheduler, perTrial, tc.budget)
		}
	}
}

func TestEngineIsImmutableAndReusable(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(4), dining.LR1,
		dining.WithSeed(3), dining.WithMaxSteps(4_000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEats != b.TotalEats || a.Steps != b.Steps {
		t.Error("two Run calls on the same engine differ: engines must be immutable")
	}
	if eng.Algorithm() != "LR1" || eng.Scheduler() != dining.Random || eng.Seed() != 3 {
		t.Error("accessors disagree with configuration")
	}
}

func TestTrialsStopsOnConsumerBreak(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(4), dining.GDP1,
		dining.WithMaxSteps(2_000), dining.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, err := range eng.Trials(context.Background(), 100) {
		if err != nil {
			t.Fatal(err)
		}
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Errorf("saw %d results after breaking at 3", seen)
	}
}

// TestEngineSchedulers runs every built-in scheduler through Engine.Run.
func TestEngineSchedulers(t *testing.T) {
	t.Parallel()
	for _, kind := range dining.Schedulers() {
		if strings.HasPrefix(kind, "test-") {
			continue // registered by other tests
		}
		eng, err := dining.New(dining.Ring(4), dining.GDP2,
			dining.WithScheduler(kind), dining.WithSeed(2), dining.WithMaxSteps(3_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Errorf("scheduler %s failed: %v", kind, err)
		}
	}
}

// TestEngineRunConcurrentFaults pins that RunConcurrent hands the engine's
// fault model to the goroutine runtime: a crash-family model is injected and
// counted, and a message-level model runs too.
func TestEngineRunConcurrentFaults(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(5), dining.LR1, dining.WithSeed(7), dining.WithFaults("crash-rejoin:0.2,0.5"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := eng.RunConcurrent(context.Background(), 5*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Crashes == nil || metrics.Rejoins == nil {
		t.Fatal("faulted run reported no crash counters")
	}
	if len(metrics.Starved) != 0 {
		t.Errorf("starved philosophers under crash-rejoin: %v", metrics.Starved)
	}

	delayed, err := dining.New(dining.Ring(5), dining.LR1, dining.WithSeed(7), dining.WithFaults("delayed-grants:0.1,2"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = delayed.RunConcurrent(context.Background(), 5*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics.Starved) != 0 {
		t.Errorf("starved philosophers under delayed-grants: %v", metrics.Starved)
	}
}
