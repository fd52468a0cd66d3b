package sim_test

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestRunIsDeterministicForSeed runs LR1, whose fork choice is a fair coin
// drawn from the run's source, under round-robin: the seed is the run's only
// source of randomness, so equal seeds must give equal runs and a different
// seed a different one.
func TestRunIsDeterministicForSeed(t *testing.T) {
	t.Parallel()
	run := func(seed uint64) *sim.Result {
		prog, err := algo.New("LR1", algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(graph.Ring(4), prog, sched.NewRoundRobin(), prng.New(seed), sim.RunOptions{MaxSteps: 3000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(11), run(11)
	if a.TotalEats != b.TotalEats || a.Steps != b.Steps || a.FirstEatStep != b.FirstEatStep || string(a.Final.AppendKey(nil)) != string(b.Final.AppendKey(nil)) {
		t.Error("identical seeds produced different runs")
	}
	if c := run(12); string(c.Final.AppendKey(nil)) == string(a.Final.AppendKey(nil)) && c.TotalEats == a.TotalEats && c.FirstEatStep == a.FirstEatStep {
		t.Error("seeds 11 and 12 produced the same run; the seed does not reach the coin flips")
	}
}
