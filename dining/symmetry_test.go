package dining_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/dining"
	"repro/internal/algo"
	"repro/internal/trace"
)

// TestSymmetryQuotientMatchesUnreduced is the acceptance grid of the symmetry
// quotient: across topology × algorithm × fault configurations, an engine
// with WithSymmetry must decide exactly the verdicts of the unreduced engine,
// produce a counterexample exactly when the unreduced engine does, and every
// quotient counterexample — lifted from orbits back to concrete states — must
// replay cleanly on the UNREDUCED engine. State counts are per-orbit, so the
// quotient space must never be larger, and must be strictly smaller wherever
// the topology has a nontrivial automorphism group.
func TestSymmetryQuotientMatchesUnreduced(t *testing.T) {
	t.Parallel()
	type cell struct {
		topo    *dining.Topology
		algs    []string
		faults  []dining.Option
		reduced bool // nontrivial group: expect strictly fewer states
	}
	grid := []cell{
		{dining.Ring(3), []string{dining.LR1, dining.LR2, dining.GDP1, dining.GDP2, dining.NaiveLeftFirst}, nil, true},
		{dining.Ring(4), []string{dining.LR1, dining.NaiveLeftFirst}, nil, true},
		{dining.Star(3), []string{dining.LR1, dining.GDP2}, nil, true},
		// Asymmetric topology: WithSymmetry is a sound no-op.
		{dining.Theorem2Minimal(), []string{dining.LR1}, nil, false},
		// Fault-injected transition systems quotient too (the crashed bit
		// rides along in the permuted image).
		{dining.Ring(3), []string{dining.LR1, dining.GDP1}, []dining.Option{dining.WithFaults("crash-rejoin:0.1,0.5")}, true},
	}
	ctx := context.Background()
	for _, c := range grid {
		for _, alg := range c.algs {
			plain := mustEngine(t, c.topo, alg, c.faults...)
			sym := mustEngine(t, c.topo, alg, append([]dining.Option{dining.WithSymmetry()}, c.faults...)...)
			if !sym.Symmetry() || plain.Symmetry() {
				t.Fatalf("%s/%s: Symmetry() accessor does not reflect WithSymmetry", c.topo.Name(), alg)
			}
			want, err := plain.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sym.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d results under symmetry, %d unreduced", c.topo.Name(), alg, len(got), len(want))
			}
			for i := range want {
				name := c.topo.Name() + "/" + alg + "/" + want[i].Property
				if got[i].Property != want[i].Property || got[i].Kind != want[i].Kind {
					t.Fatalf("%s: result order differs under symmetry", name)
				}
				if got[i].Passed != want[i].Passed {
					t.Errorf("%s: symmetry verdict %v, unreduced %v", name, got[i].Passed, want[i].Passed)
				}
				if (got[i].Counterexample == nil) != (want[i].Counterexample == nil) {
					t.Errorf("%s: counterexample presence differs (symmetry %v, unreduced %v)",
						name, got[i].Counterexample != nil, want[i].Counterexample != nil)
				}
				if got[i].States > want[i].States {
					t.Errorf("%s: quotient space has %d states, unreduced %d", name, got[i].States, want[i].States)
				}
				if c.reduced && got[i].States >= want[i].States {
					t.Errorf("%s: quotient did not shrink the space (%d states)", name, got[i].States)
				}
				if !c.reduced && got[i].States != want[i].States {
					t.Errorf("%s: trivial group changed the state count: %d vs %d", name, got[i].States, want[i].States)
				}
				if cx := got[i].Counterexample; cx != nil {
					// The lifted trace must be a concrete execution of the
					// unreduced system.
					if err := plain.ReplayTrace(cx); err != nil {
						t.Errorf("%s: lifted counterexample does not replay on the unreduced engine: %v", name, err)
					}
					if err := sym.ReplayTrace(cx); err != nil {
						t.Errorf("%s: lifted counterexample does not replay on its own engine: %v", name, err)
					}
				}
			}
		}
	}
}

// TestSymmetryLiftedDeadlockWitness pins the semantics of a lifted witness:
// the final state of a quotient deadlock counterexample, replayed concretely,
// must itself be a deadlock of the unreduced system — every outcome of every
// philosopher is a self-loop — not merely some state in the witness orbit's
// vicinity.
func TestSymmetryLiftedDeadlockWitness(t *testing.T) {
	t.Parallel()
	topo := dining.Ring(4)
	sym := mustEngine(t, topo, dining.NaiveLeftFirst, dining.WithSymmetry())
	results, err := sym.CheckAll(context.Background(), dining.DeadlockFreedom)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Passed || res.Counterexample == nil {
		t.Fatalf("naive-left-first on ring-4 must fail deadlock-freedom with a counterexample (passed=%v)", res.Passed)
	}
	prog, err := algo.New(dining.NaiveLeftFirst, algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Replay(topo, prog, res.Counterexample)
	if err != nil {
		t.Fatalf("replay of the lifted counterexample failed: %v", err)
	}
	base := w.AppendKey(nil)
	for p := 0; p < topo.NumPhilosophers(); p++ {
		pid := dining.PhilID(p)
		outcomes := prog.Outcomes(w, pid, nil)
		for o := range outcomes {
			succ := w.Clone()
			prog.Outcomes(succ, pid, nil)[o].Do(succ, pid)
			if key := succ.AppendKey(nil); string(key) != string(base) {
				t.Fatalf("lifted final state is not a deadlock: P%d outcome %d moves the system", p, o)
			}
		}
	}
}

// TestZeroRateFaultSymmetryEquivalence extends the fault layer's zero-cost
// promise to the quotient: a symmetry-enabled engine wrapped in a zero-rate
// fault model produces JSON-identical verdicts to the fault-free
// symmetry-enabled engine (the crashed bit never sets, so both explore the
// same orbit space). Only the fault annotation itself may differ.
func TestZeroRateFaultSymmetryEquivalence(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, alg := range []string{dining.LR1, dining.GDP2, dining.NaiveLeftFirst} {
		plain := mustEngine(t, dining.Ring(3), alg, dining.WithSymmetry(), dining.WithSeed(7))
		zero := mustEngine(t, dining.Ring(3), alg, dining.WithSymmetry(), dining.WithSeed(7),
			dining.WithFaults("crash-rejoin:0"))
		want, err := plain.CheckAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := zero.CheckAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Faults != "crash-rejoin:0,0.5" {
				t.Errorf("%s: zero-rate result reports faults %q", alg, got[i].Faults)
			}
			got[i].Faults = ""
			got[i].Detail = strings.TrimSuffix(got[i].Detail, " under crash-rejoin:0,0.5")
			if got[i].Counterexample != nil {
				got[i].Counterexample.Faults = ""
			}
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(wantJSON) != string(gotJSON) {
			t.Errorf("%s: zero-rate fault + symmetry differs from plain symmetry:\nwant %s\ngot  %s", alg, wantJSON, gotJSON)
		}
	}
}

// TestSymmetryTruncatedDeterministicAcrossWorkers pins truncation under the
// quotient: a state cap cuts the orbit exploration at the same point for
// every worker/shard configuration, so capped symmetric engines are
// JSON-deterministic too (a truncated quotient is compared against itself,
// not the unreduced engine — a per-orbit cap covers more of the system than
// the same cap unreduced, so verdict equivalence is not expected).
func TestSymmetryTruncatedDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	build := func(workers, shards int) *dining.Engine {
		return mustEngine(t, dining.Ring(4), dining.LR2,
			dining.WithSymmetry(), dining.WithMaxStates(700),
			dining.WithWorkers(workers), dining.WithShards(shards))
	}
	ref := build(1, 1)
	results, err := ref.CheckAll(context.Background(), dining.StarvationTrap)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Truncated {
		t.Fatalf("cap 700 did not truncate the ring-4 LR2 quotient (%d states)", results[0].States)
	}
	want := mustCheckJSON(t, ref, dining.StarvationTrap)
	for _, cfg := range [][2]int{{4, 1}, {8, 4}} {
		if got := mustCheckJSON(t, build(cfg[0], cfg[1]), dining.StarvationTrap); got != want {
			t.Errorf("workers=%d shards=%d: truncated symmetric verdict differs:\nwant %s\ngot  %s",
				cfg[0], cfg[1], want, got)
		}
	}
}
