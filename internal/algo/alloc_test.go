package algo

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestSimulationStepDoesNotAllocate pins the headline property of the
// zero-allocation refactor: a full simulation step — computing a
// philosopher's outcome set into a reused scratch buffer, sampling one
// outcome and applying it — performs no heap allocations in steady state,
// for every algorithm of the paper and every baseline. Outcome sets are built
// from static Apply functions plus an Arg (no closures), the scratch buffer
// is reused, and sampling walks the probabilities in place.
func TestSimulationStepDoesNotAllocate(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			prog, err := New(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			topo := graph.Ring(5)
			w := sim.NewWorld(topo)
			prog.Init(w)
			rng := prng.New(42)
			var buf []sim.Outcome
			nextPhil := 0
			step := func() {
				p := graph.PhilID(nextPhil % topo.NumPhilosophers())
				nextPhil++
				outcomes := prog.Outcomes(w, p, buf[:0])
				buf = outcomes
				sim.SampleOutcome(outcomes, rng).Do(w, p)
				w.Step++
			}
			// Warm up: grow the scratch buffer to its steady-state capacity
			// (the widest outcome set is the GDP renumber draw, m outcomes)
			// and let the naive baseline reach its deadlock, the deepest
			// state any program settles into.
			for i := 0; i < 2000; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
				t.Errorf("%s: a steady-state simulation step allocates %.2f times, want 0", name, allocs)
			}
		})
	}
}

// TestRunWorldSteadyStateAllocations verifies the same property end to end
// through the engine: doubling the steps of a run must not measurably
// increase its allocations, i.e. the per-step cost of sim.RunWorld is
// allocation-free (the fixed per-run setup — result slices, trackers — is
// allowed).
func TestRunWorldSteadyStateAllocations(t *testing.T) {
	run := func(steps int64) func() {
		return func() {
			prog := mustNew(t, "GDP2", Options{})
			topo := graph.Ring(7)
			if _, err := sim.Run(topo, prog, sched.NewRoundRobin(), prng.New(7), sim.RunOptions{MaxSteps: steps}); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(20, run(2_000))
	long := testing.AllocsPerRun(20, run(20_000))
	// 18k extra steps may add at most a few allocations (scratch growth on
	// the first iterations); anything proportional to the step count fails.
	if long > short+16 {
		t.Errorf("10x steps raised allocations from %.1f to %.1f; the step loop is allocating", short, long)
	}
}

// TestOutcomeBufferReuse checks that Outcomes actually appends into the
// provided buffer instead of allocating a new one when capacity suffices.
func TestOutcomeBufferReuse(t *testing.T) {
	prog := mustNew(t, "LR1", Options{})
	w := sim.NewWorld(graph.Ring(3))
	prog.Init(w)
	buf := make([]sim.Outcome, 0, 8)
	out := prog.Outcomes(w, 0, buf)
	if len(out) == 0 {
		t.Fatal("no outcomes")
	}
	if &out[0] != &buf[0:1][0] {
		t.Error("Outcomes did not append into the caller's scratch buffer")
	}
}

func BenchmarkOutcomesPerStep(b *testing.B) {
	for _, name := range []string{"LR1", "LR2", "GDP1", "GDP2"} {
		b.Run(name, func(b *testing.B) {
			prog, err := New(name, Options{})
			if err != nil {
				b.Fatal(err)
			}
			topo := graph.Ring(9)
			w := sim.NewWorld(topo)
			prog.Init(w)
			rng := prng.New(1)
			var buf []sim.Outcome
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := graph.PhilID(i % topo.NumPhilosophers())
				outcomes := prog.Outcomes(w, p, buf[:0])
				buf = outcomes
				sim.SampleOutcome(outcomes, rng).Do(w, p)
				w.Step++
			}
		})
	}
}
