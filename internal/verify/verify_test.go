package verify

import (
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

func randomSched(rng *prng.Source) sim.Scheduler { return sched.NewUniformRandom(rng) }

// auditSymmetry checks the paper's symmetry and full-distribution conditions
// for prog on topo: identical reports whether every philosopher and every
// fork starts in the same state, and sharesGlobals whether a 5,000-step
// round-robin run used any shared register beyond the forks.
func auditSymmetry(t *testing.T, topo *graph.Topology, prog sim.Program, seed uint64) (identical, sharesGlobals bool) {
	t.Helper()
	w := sim.NewWorld(topo)
	prog.Init(w)
	identical = true
	for p := range w.Phils {
		if w.Phils[p] != w.Phils[0] {
			t.Logf("%s: philosopher %d starts in a different state than philosopher 0", prog.Name(), p)
			identical = false
		}
	}
	for f := range w.Forks {
		if w.Forks[f] != w.Forks[0] {
			t.Logf("%s: fork %d starts in a different state than fork 0", prog.Name(), f)
			identical = false
		}
	}
	res, err := sim.RunWorld(w, prog, sched.NewRoundRobin(), prng.New(seed), sim.RunOptions{MaxSteps: 5000})
	if err != nil {
		t.Fatalf("probe run of %s on %s failed: %v", prog.Name(), topo.Name(), err)
	}
	return identical, len(res.Final.Globals) != 0
}

func TestDistinctNumberBound(t *testing.T) {
	t.Parallel()
	if got := DistinctNumberBound(5, 1); got != 1 {
		t.Errorf("k=1 bound = %v, want 1", got)
	}
	// m=3, k=3: 3!/3^3 = 6/27.
	if got, want := DistinctNumberBound(3, 3), 6.0/27.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("bound(3,3) = %v, want %v", got, want)
	}
	// m=6, k=3: (6*5*4)/6^3 = 120/216.
	if got, want := DistinctNumberBound(6, 3), 120.0/216.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("bound(6,3) = %v, want %v", got, want)
	}
	// Larger m gives a larger probability of distinct numbers.
	if DistinctNumberBound(12, 3) <= DistinctNumberBound(3, 3) {
		t.Error("bound should increase with m")
	}
}

func TestDistinctNumberBoundPanicsWhenKExceedsM(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > m")
		}
	}()
	DistinctNumberBound(2, 3)
}

// TestDistinctNumberBoundMatchesSimulation checks the closed form against
// an independent Monte-Carlo estimate: the fraction of 200,000 rounds of k
// uniform draws from [1, m] that are pairwise distinct.
func TestDistinctNumberBoundMatchesSimulation(t *testing.T) {
	t.Parallel()
	const trials = 200_000
	for _, tc := range []struct{ m, k int }{{3, 3}, {6, 3}, {10, 4}} {
		rng := prng.New(7)
		hits := 0
		for range trials {
			seen := make([]bool, tc.m+1)
			distinct := true
			for range tc.k {
				v := 1 + rng.Intn(tc.m)
				distinct = distinct && !seen[v]
				seen[v] = true
			}
			if distinct {
				hits++
			}
		}
		analytic := DistinctNumberBound(tc.m, tc.k)
		estimated := float64(hits) / trials
		if math.Abs(analytic-estimated) > 0.01 {
			t.Errorf("m=%d k=%d: analytic %v vs estimated %v", tc.m, tc.k, analytic, estimated)
		}
	}
}

func TestSection3Bound(t *testing.T) {
	t.Parallel()
	// For p <= 1/2 the bound is at least 1/16.
	if got := Section3Bound(0.5); got < 1.0/16.0-1e-12 {
		t.Errorf("Section3Bound(0.5) = %v, want >= 1/16", got)
	}
	if got := Section3Bound(0); got != 0.25 {
		t.Errorf("Section3Bound(0) = %v, want 0.25", got)
	}
	if Section3Bound(-1) != 0 || Section3Bound(1) != 0 {
		t.Error("out-of-range p should give 0")
	}
}

func TestAuditSymmetryPaperAlgorithms(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	for _, name := range []string{"LR1", "LR2", "GDP1", "GDP2"} {
		prog, err := algo.New(name, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if identical, shares := auditSymmetry(t, topo, prog, 3); !identical || shares {
			t.Errorf("%s should pass the symmetry audit: identical initial states %v, shared globals %v", name, identical, shares)
		}
	}
}

func TestAuditSymmetryRejectsCentralizedBaselines(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(5)
	for _, name := range []string{"central-monitor", "ticket-box"} {
		prog, err := algo.New(name, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, shares := auditSymmetry(t, topo, prog, 3); !shares {
			t.Errorf("%s uses shared state and must fail the symmetry audit", name)
		}
	}
}
