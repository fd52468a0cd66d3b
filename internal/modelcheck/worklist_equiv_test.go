package modelcheck

import (
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphalg/graphalgtest"
)

// TestWorklistMatchesReferenceFixpoint is the equivalence grid for the
// worklist analysis engine: every registered topology × every registered
// algorithm, explored at the constructors' small default sizes with a state
// cap that leaves the large cells truncated (so the unexpanded-state handling
// is exercised too), decided twice — by the live worklist algorithms over the
// shared predecessor index and by the retained reference sweeps of
// graphalgtest — and compared field by field. Deadlock and dead-region state
// lists, trap verdicts, safe-region sizes, witness states and
// covered-philosopher sets must all be byte-identical; on trap-positive cells
// the counterexample traces extracted from the two witnesses must match too.
//
// A second pass re-checks the per-philosopher trap analyses (the
// lockout-freedom fan-out) on the smaller cells: one shared index, one
// labelling per philosopher, against one reference sweep each.
func TestWorklistMatchesReferenceFixpoint(t *testing.T) {
	t.Parallel()
	maxStates := 2500
	if testing.Short() {
		maxStates = 1200
	}
	truncatedCells := 0
	for _, topoName := range graph.TopologyNames() {
		for _, algName := range algo.Names() {
			topo, err := graph.NewTopology(topoName, 0)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := algo.New(algName, algo.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ss, err := Explore(topo, prog, Options{MaxStates: maxStates})
			if err != nil {
				t.Fatalf("%s on %s: %v", algName, topoName, err)
			}
			if ss.Truncated {
				truncatedCells++
			}
			cell := algName + " on " + topoName

			if got, want := ss.DeadlockStates(), graphalgtest.DeadlockStates(ss); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DeadlockStates = %v, reference %v", cell, got, want)
			}
			goal := func(s int) bool { return ss.anyEating[s] }
			if got, want := ss.DeadRegionStates(), graphalgtest.DeadRegionStates(ss, goal); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DeadRegionStates = %v, reference %v", cell, got, want)
			}
			got := ss.FindStarvationTrap()
			want := graphalgtest.MaximalTrap(ss, ss.Bad)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: trap diverged:\n got  %+v\n want %+v", cell, got, want)
			}
			if got.Exists && got.WitnessState == want.WitnessState {
				// Same witness, same extractor — but pin the full trace
				// anyway, so a regression in either layer shows up as a
				// trace diff rather than a silent verdict drift.
				ctGot, err := ss.CounterexampleTo("starvation-trap", got.WitnessState)
				if err != nil {
					t.Errorf("%s: counterexample from worklist witness: %v", cell, err)
					continue
				}
				ctWant, err := ss.CounterexampleTo("starvation-trap", want.WitnessState)
				if err != nil {
					t.Errorf("%s: counterexample from reference witness: %v", cell, err)
					continue
				}
				if !reflect.DeepEqual(ctGot, ctWant) {
					t.Errorf("%s: counterexample traces diverged", cell)
				}
			}
		}
	}
	if truncatedCells == 0 {
		t.Errorf("no grid cell truncated at MaxStates %d; the grid no longer exercises unexpanded states", maxStates)
	}

	// Per-philosopher pass: the lockout-freedom labellings over one shared
	// index on the two minimal theorem topologies.
	for _, tc := range []struct {
		topo *graph.Topology
		alg  string
	}{
		{graph.Theorem2Minimal(), "LR1"},
		{graph.Theorem2Minimal(), "GDP1"},
		{graph.Theorem1Minimal(), "LR1"},
	} {
		prog, err := algo.New(tc.alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Explore(tc.topo, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < ss.NumPhils; p++ {
			got, err := ss.FindStarvationTrapAgainst([]graph.PhilID{graph.PhilID(p)})
			if err != nil {
				t.Fatal(err)
			}
			mask := uint64(1) << uint(p)
			want := graphalgtest.MaximalTrap(ss, func(s int) bool { return ss.eating[s]&mask != 0 })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s, philosopher %d: trap diverged:\n got  %+v\n want %+v",
					tc.alg, tc.topo.Name(), p, got, want)
			}
		}
	}
}
