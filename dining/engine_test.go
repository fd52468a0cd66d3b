package dining_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/dining"
	"repro/internal/algo"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

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

	want := make([]*sim.Result, trials)
	for i := range want {
		prog, err := algo.New("GDP2", algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := prng.New(9 + uint64(i)*0x9e3779b97f4a7c15)
		s, err := sched.New("random", sched.Config{RNG: rng.Split()})
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = sim.Run(topo, prog, s, rng, sim.RunOptions{MaxSteps: steps}); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 3, 8} {
		eng, err := dining.New(topo, dining.GDP2,
			dining.WithSeed(9),
			dining.WithWorkers(workers),
			dining.WithMaxSteps(steps))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*dining.SimResult, trials)
		for tr, err := range eng.Trials(context.Background(), trials) {
			if err != nil {
				t.Fatal(err)
			}
			if got[tr.Trial] != nil {
				t.Fatalf("workers=%d: trial %d yielded twice", workers, tr.Trial)
			}
			got[tr.Trial] = tr.Result
		}
		for i := range want {
			if got[i] == nil {
				t.Fatalf("workers=%d: trial %d never yielded", workers, i)
			}
			w, g := want[i], got[i]
			if g.TotalEats != w.TotalEats || g.Steps != w.Steps ||
				g.FirstEatStep != w.FirstEatStep ||
				g.MeanWaitSteps != w.MeanWaitSteps ||
				g.MaxScheduleGap != w.MaxScheduleGap ||
				!reflect.DeepEqual(g.EatsBy, w.EatsBy) ||
				!reflect.DeepEqual(g.ScheduledCount, w.ScheduledCount) {
				t.Errorf("workers=%d: trial %d differs from the sequential reference: got (eats %d, steps %d, wait %v), want (eats %d, steps %d, wait %v)",
					workers, i, g.TotalEats, g.Steps, g.MeanWaitSteps, w.TotalEats, w.Steps, w.MeanWaitSteps)
			}
		}

		// Repeat is the blocking counterpart and must agree too.
		rep, err := eng.Repeat(context.Background(), trials)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rep[i].TotalEats != want[i].TotalEats || rep[i].Steps != want[i].Steps {
				t.Errorf("workers=%d: Repeat trial %d differs from the sequential reference", workers, i)
			}
		}
	}
}

// TestRepeatParallelMatchesSequentialResults pins that re-running any single
// trial of a parallel Repeat on its own — an engine whose base seed is the
// trial's derived seed — reproduces the result at that index exactly.
func TestRepeatParallelMatchesSequentialResults(t *testing.T) {
	t.Parallel()
	const steps = 5_000
	eng, err := dining.New(dining.Ring(5), dining.GDP2,
		dining.WithScheduler("random"), dining.WithSeed(7), dining.WithWorkers(8), dining.WithMaxSteps(steps))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Repeat(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("got %d results, want 12", len(results))
	}
	for _, i := range []int{0, 5, 11} {
		single, err := dining.New(dining.Ring(5), dining.GDP2,
			dining.WithScheduler("random"), dining.WithSeed(7+uint64(i)*0x9e3779b97f4a7c15), dining.WithMaxSteps(steps))
		if err != nil {
			t.Fatal(err)
		}
		res, err := single.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalEats != results[i].TotalEats || res.Steps != results[i].Steps {
			t.Errorf("trial %d: parallel result (eats %d, steps %d) != sequential (eats %d, steps %d)",
				i, results[i].TotalEats, results[i].Steps, res.TotalEats, res.Steps)
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
	eng, err := dining.New(dining.Ring(5), dining.LR1, dining.WithSeed(7), dining.WithFaults("crash-rejoin", 0.2, 0.5))
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

	delayed, err := dining.New(dining.Ring(5), dining.LR1, dining.WithSeed(7), dining.WithFaults("delayed-grants", 0.1, 2))
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
