package sched

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
)

// livelockRate runs `trials` independent runs of the named algorithm on topo
// under the bounded-fair greedy livelock adversary and returns how many runs
// ended with no protected philosopher having eaten.
func livelockRate(t *testing.T, topo *graph.Topology, algoName string, protected []graph.PhilID, trials int, steps int64) int {
	t.Helper()
	safe := 0
	for i := 0; i < trials; i++ {
		prog, err := algo.New(algoName, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		adv := NewBoundedFair(NewGreedyLivelock(protected...), 300)
		res, err := sim.Run(topo, prog, adv, prng.New(uint64(i)+1), sim.RunOptions{MaxSteps: steps})
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		if len(protected) == 0 {
			ok = res.TotalEats == 0
		} else {
			for _, p := range protected {
				if res.EatsBy[p] > 0 {
					ok = false
				}
			}
		}
		if ok {
			safe++
		}
		// The adversary must remain fair: within a bounded window every
		// philosopher acts.
		if res.MaxScheduleGap > 400 {
			t.Fatalf("adversary exceeded its fairness window: max gap %d", res.MaxScheduleGap)
		}
	}
	return safe
}

// These tests reproduce the paper's headline qualitative results with the
// greedy livelock adversary (experiments E-S3, E-T2, E-T3, E-T4 of the suite
// in package dining). The thresholds are intentionally loose; dpbench prints
// the measured rates.

func TestAdversaryDefeatsLR1OnSection3Topology(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	// Section 3 example: on the 6-philosopher / 3-fork doubled triangle a
	// fair adversary keeps LR1 from any progress with clearly positive
	// probability (the paper proves >= 1/4 · Π(1−p^k) >= 1/16; the adaptive
	// adversary does much better).
	safe := livelockRate(t, graph.Figure1A(), "LR1", nil, 20, 30000)
	if safe < 8 {
		t.Errorf("LR1 no-progress rate %d/20 under the Section 3 adversary; expected at least 8/20 (paper bound: 1/16)", safe)
	}
}

func TestAdversaryDefeatsLR2OnSection3Topology(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	safe := livelockRate(t, graph.Figure1A(), "LR2", nil, 20, 30000)
	if safe < 8 {
		t.Errorf("LR2 no-progress rate %d/20 on Figure 1a; expected at least 8/20 (Theorem 2 applies)", safe)
	}
}

func TestAdversaryDefeatsLR2OnThetaGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	// Theorem 2: two forks joined by three philosophers (the minimal "ring
	// plus extra path" instance).
	safe := livelockRate(t, graph.Theorem2Minimal(), "LR2", nil, 20, 30000)
	if safe < 6 {
		t.Errorf("LR2 no-progress rate %d/20 on the theta graph; expected at least 6/20", safe)
	}
}

func TestGDP1DefeatsAdversaryOnSection3Topology(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	// Theorem 3: GDP1 makes progress under every fair adversary — in
	// particular under the same adversary that defeats LR1.
	safe := livelockRate(t, graph.Figure1A(), "GDP1", nil, 20, 30000)
	if safe != 0 {
		t.Errorf("GDP1 was starved in %d/20 runs by a fair adversary; Theorem 3 predicts progress in every run", safe)
	}
}

func TestGDP2DefeatsAdversaryOnThetaGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	safe := livelockRate(t, graph.Theorem2Minimal(), "GDP2", nil, 20, 30000)
	if safe != 0 {
		t.Errorf("GDP2 was starved in %d/20 runs by a fair adversary; Theorem 4 predicts progress in every run", safe)
	}
}

func TestGDP2DefeatsAdversaryOnFigure1A(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	safe := livelockRate(t, graph.Figure1A(), "GDP2", nil, 20, 30000)
	if safe != 0 {
		t.Errorf("GDP2 was starved in %d/20 runs by a fair adversary", safe)
	}
}

func TestAdversaryCannotDefeatLR1OnClassicRing(t *testing.T) {
	if testing.Short() {
		t.Skip("adversary experiment skipped in -short mode")
	}
	t.Parallel()
	// Lehmann & Rabin's original result: on the classic ring LR1 guarantees
	// progress with probability 1 under every fair scheduler, so even the
	// livelock adversary cannot starve it.
	safe := livelockRate(t, graph.Ring(5), "LR1", nil, 20, 30000)
	if safe != 0 {
		t.Errorf("LR1 was starved on the classic ring in %d/20 runs; the original Lehmann-Rabin guarantee should hold there", safe)
	}
}
