package dining_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/dining"
)

func TestSimulateQuickstart(t *testing.T) {
	t.Parallel()
	res, err := dining.Simulate(context.Background(), dining.Ring(5), dining.GDP2,
		dining.WithSeed(1), dining.WithMaxSteps(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEats == 0 {
		t.Error("no meals in the quickstart simulation")
	}
}

func TestFacadeExposesAlgorithmsAndTopologies(t *testing.T) {
	t.Parallel()
	if len(dining.Algorithms()) < 9 {
		t.Errorf("expected the nine built-in algorithms, got %v", dining.Algorithms())
	}
	if len(dining.Schedulers()) < 6 {
		t.Errorf("expected the six built-in schedulers, got %v", dining.Schedulers())
	}
	if len(dining.Topologies()) < 10 {
		t.Errorf("expected the builder topologies to be registered, got %v", dining.Topologies())
	}
	if dining.Figure1A().NumPhilosophers() != 6 {
		t.Error("Figure1A should have 6 philosophers")
	}
	b := dining.NewTopologyBuilder("custom", 3)
	b.AddPhilosopher(0, 1)
	b.AddPhilosopher(1, 2)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumPhilosophers() != 2 {
		t.Error("custom topology wrong")
	}
}

func TestEngineValidation(t *testing.T) {
	t.Parallel()
	if _, err := dining.New(nil, dining.GDP1); err == nil {
		t.Error("New accepted a nil topology")
	}
	if _, err := dining.New(dining.Ring(3), "nope"); err == nil {
		t.Error("New accepted an unknown algorithm")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-algorithm error should list the registered options, got: %v", err)
	}
	if _, err := dining.New(dining.Ring(3), dining.GDP1, dining.WithScheduler("warp")); err == nil {
		t.Error("New accepted an unknown scheduler")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-scheduler error should list the registered options, got: %v", err)
	}
	if _, err := dining.NewTopology("moebius", 3); err == nil {
		t.Error("NewTopology accepted an unknown name")
	} else if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown-topology error should list the registered options, got: %v", err)
	}
}

// TestNewRejectsOutOfRangeProtected pins that a protected philosopher the
// topology does not have is a construction error, as a fault target is.
func TestNewRejectsOutOfRangeProtected(t *testing.T) {
	t.Parallel()
	for _, p := range []dining.PhilID{3, 99, -1} {
		_, err := dining.New(dining.Ring(3), dining.LR1, dining.WithProtected(0, p))
		if err == nil {
			t.Errorf("New accepted protected philosopher %d on a 3-philosopher ring", p)
		} else if !strings.Contains(err.Error(), "protected philosopher") {
			t.Errorf("protected %d: error = %q, want it to name the protected philosopher", p, err)
		}
	}
	if _, err := dining.New(dining.Ring(3), dining.LR1, dining.WithProtected(0, 2)); err != nil {
		t.Errorf("New rejected in-range protected philosophers: %v", err)
	}
}

// TestNewBoundsM pins the bound on GDP's number range: every draw lists all
// m outcomes, so New and Sweep.Scenarios refuse an m above the largest fork
// count (65,536) with an error naming the bound, and accept m up to it.
func TestNewBoundsM(t *testing.T) {
	t.Parallel()
	over := dining.AlgorithmOptions{M: 65_537}
	if _, err := dining.New(dining.Ring(3), dining.GDP2, dining.WithAlgorithmOptions(over)); err == nil {
		t.Error("New accepted M = 65537")
	} else if !strings.Contains(err.Error(), "65536") {
		t.Errorf("New with M = 65537: error %q does not name the bound", err)
	}
	if _, err := dining.New(dining.Ring(3), dining.GDP2, dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: 65_536})); err != nil {
		t.Errorf("New rejected M = 65536: %v", err)
	}
	sweep := dining.Sweep{Topologies: []*dining.Topology{dining.Ring(3)}, Algorithms: []string{dining.GDP1}, AlgorithmOptions: over}
	if _, err := sweep.Scenarios(); err == nil || !strings.Contains(err.Error(), "65536") {
		t.Errorf("Sweep.Scenarios with M = 65537: error %v, want one naming the bound", err)
	}
}

// TestLockoutFreedomNamesLowestProtectedPhilosopher pins that the verdict
// does not depend on how the protected set is spelled: with {1, 0} on
// ring-3/GDP2 both philosophers can be starved, and the detail names the
// lowest, P0, as it does for {0, 1}.
func TestLockoutFreedomNamesLowestProtectedPhilosopher(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(3), dining.GDP2, dining.WithProtected(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.CheckAll(context.Background(), dining.LockoutFreedom)
	if err != nil {
		t.Fatal(err)
	}
	if res := results[0]; res.Passed || !strings.Contains(res.Detail, "starve philosopher 0 ") {
		t.Errorf("lockout-freedom with protected {1, 0}: passed %v, detail %q; want P0 starved", res.Passed, res.Detail)
	}
}

func TestEngineAdversarialRun(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.DoubledPolygon(3), dining.GDP1,
		dining.WithScheduler(dining.Adversary),
		dining.WithSeed(7),
		dining.WithMaxSteps(30_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEats == 0 {
		t.Error("GDP1 should make progress even under the adversary (Theorem 3)")
	}
}

func TestFacadeModelCheck(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Theta(1, 1, 1), dining.LR2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CheckAll(context.Background(), dining.StarvationTrap)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Passed || res[0].Counterexample == nil {
		t.Errorf("expected the Theorem 2 trap for LR2 on the theta graph, got %+v", res[0])
	}
}

func TestFacadeRunConcurrent(t *testing.T) {
	t.Parallel()
	metrics, err := dining.RunConcurrent(context.Background(), dining.Ring(5), dining.GDP2, 3, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics.Starved) != 0 {
		t.Errorf("starved: %v", metrics.Starved)
	}
}

// TestEngineRunConcurrent runs engines on the goroutine runtime: GDP2 on
// ring-5, and the colored baseline on ring-4, whose even coloring serves
// everyone.
func TestEngineRunConcurrent(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(5), dining.GDP2, dining.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := eng.RunConcurrent(context.Background(), 5*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics.Starved) != 0 {
		t.Errorf("starved philosophers: %v", metrics.Starved)
	}

	colored, err := dining.New(dining.Ring(4), dining.Colored, dining.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = colored.RunConcurrent(context.Background(), 5*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p, meals := range metrics.Meals {
		if meals < 2 {
			t.Errorf("colored: philosopher %d ate %d meals, want >= 2", p, meals)
		}
	}
}

func TestEngineContextCancellation(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(5), dining.GDP2, dining.WithMaxSteps(1_000_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err == nil {
		t.Error("Run ignored a cancelled context")
	}
	if _, err := eng.Explore(ctx); err == nil {
		t.Error("Explore ignored a cancelled context")
	}
	sawErr := false
	for _, err := range eng.Trials(ctx, 8) {
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("Trials stream ignored a cancelled context")
	}

	// A context cancelled mid-run must stop a long simulation promptly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	start := time.Now()
	if _, err := eng.Run(ctx2); err == nil {
		t.Error("Run with a 1e9-step budget should have been cancelled")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}
