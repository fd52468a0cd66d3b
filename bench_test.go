package repro_test

// The benchmark harness: one benchmark per reproduced artifact of the paper
// (its tables are algorithm listings and its figures are topologies and
// adversary walks, so each benchmark exercises the corresponding
// implementation end to end). Run with:
//
//	go test -bench=. -benchmem
//
// The per-op metric is one complete experiment trial (a bounded simulation
// run, a model-check, or a concurrent execution), so relative numbers across
// algorithms and topologies are directly comparable. The experiment suite
// (dining.Experiments, printed by dpbench -markdown) records the qualitative
// results; these benchmarks track their cost.

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/dining"
	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/graphalg/graphalgtest"
	"repro/internal/modelcheck"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
)

// simulateOnce runs one bounded simulation and reports meals/step metrics.
func simulateOnce(b *testing.B, topo *graph.Topology, algorithm string, kind string, seed uint64, steps int64) *sim.Result {
	b.Helper()
	eng, err := dining.New(topo, algorithm, dining.WithScheduler(kind), dining.WithSeed(seed), dining.WithMaxSteps(steps))
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// simulateUntil runs one simulation under a stop rule the engine does not
// expose (first meal, everyone fed), assembling the run as Engine.Run does:
// the program, the run's random source, then the scheduler on a split of it.
func simulateUntil(b *testing.B, topo *graph.Topology, algorithm string, opts algo.Options, kind string, seed uint64, ro sim.RunOptions) *sim.Result {
	b.Helper()
	prog, err := algo.New(algorithm, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := prng.New(seed)
	s, err := sched.New(kind, sched.Config{RNG: rng.Split()})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(topo, prog, s, rng, ro)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1LR1 .. BenchmarkTable4GDP2 exercise the four algorithm
// listings (Tables 1-4) on the classic ring under a random fair scheduler.
func benchmarkTable(b *testing.B, algorithm string) {
	topo := graph.Ring(9)
	b.ReportAllocs()
	var meals int64
	for i := 0; i < b.N; i++ {
		res := simulateOnce(b, topo, algorithm, "random", uint64(i)+1, 20_000)
		meals += res.TotalEats
	}
	b.ReportMetric(float64(meals)/float64(b.N), "meals/run")
}

func BenchmarkTable1LR1(b *testing.B)  { benchmarkTable(b, "LR1") }
func BenchmarkTable2LR2(b *testing.B)  { benchmarkTable(b, "LR2") }
func BenchmarkTable3GDP1(b *testing.B) { benchmarkTable(b, "GDP1") }
func BenchmarkTable4GDP2(b *testing.B) { benchmarkTable(b, "GDP2") }

// BenchmarkFigure1Topologies runs GDP1 on each of the four Figure 1 systems.
func BenchmarkFigure1Topologies(b *testing.B) {
	for _, topo := range graph.Figure1() {
		b.Run(topo.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var meals int64
			for i := 0; i < b.N; i++ {
				res := simulateOnce(b, topo, "GDP1", "random", uint64(i)+1, 20_000)
				meals += res.TotalEats
			}
			b.ReportMetric(float64(meals)/float64(b.N), "meals/run")
		})
	}
}

// BenchmarkSection3Adversary measures one adversarial trial of the Section 3
// example (Figure 1a) for each algorithm, reporting the fraction of trials
// with no progress (the paper's headline quantity, lower-bounded by 1/16 for
// LR1 and 0 for GDP1/GDP2).
func BenchmarkSection3Adversary(b *testing.B) {
	for _, algorithm := range []string{"LR1", "LR2", "GDP1", "GDP2"} {
		b.Run(algorithm, func(b *testing.B) {
			topo := graph.Figure1A()
			b.ReportAllocs()
			starved := 0
			for i := 0; i < b.N; i++ {
				res := simulateOnce(b, topo, algorithm, "adversary", uint64(i)+1, 30_000)
				if res.TotalEats == 0 {
					starved++
				}
			}
			b.ReportMetric(float64(starved)/float64(b.N), "no-progress-rate")
		})
	}
}

// BenchmarkTheorem1 covers the Theorem 1 / Figure 2 reproduction: the
// exhaustive trap analysis on the minimal ring-with-extra-arc instance. For
// LR1 the ring philosophers are protected and a trap must exist (Theorem 1);
// for GDP1 the claim is global progress (Theorem 3), so everyone is protected
// and no trap may exist.
func BenchmarkTheorem1(b *testing.B) {
	cases := []struct {
		algorithm string
		protected []graph.PhilID
		wantTrap  bool
	}{
		{"LR1", []graph.PhilID{0, 1, 2}, true},
		{"GDP1", nil, false},
	}
	for _, c := range cases {
		b.Run(c.algorithm, func(b *testing.B) {
			benchmarkTrap(b, graph.Theorem1Minimal(), c.algorithm, c.protected, c.wantTrap)
		})
	}
}

// BenchmarkTheorem2 covers the Theorem 2 / Figure 3 reproduction: the trap
// analysis for LR2 versus GDP2 on the theta graph.
func BenchmarkTheorem2(b *testing.B) {
	for _, algorithm := range []string{"LR2", "GDP2"} {
		b.Run(algorithm, func(b *testing.B) {
			benchmarkTrap(b, graph.Theorem2Minimal(), algorithm, nil, algorithm == "LR2")
		})
	}
}

// benchmarkTrap times one cold starvation-trap check per op — exploration,
// trap analysis and, when a trap exists, its counterexample — and fails on a
// verdict other than wantTrap.
func benchmarkTrap(b *testing.B, topo *graph.Topology, algorithm string, protected []graph.PhilID, wantTrap bool) {
	eng, err := dining.New(topo, algorithm, dining.WithProtected(protected...))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := eng.CheckAll(context.Background(), dining.StarvationTrap)
		if err != nil {
			b.Fatal(err)
		}
		if trap := !res[0].Passed; trap != wantTrap {
			b.Fatalf("%s verdict %v, want %v", algorithm, trap, wantTrap)
		}
	}
}

// BenchmarkTheorem3Progress measures the time for GDP1 to reach its first
// meal under the livelock adversary on each Figure 1 topology (Theorem 3:
// progress under every fair scheduler).
func BenchmarkTheorem3Progress(b *testing.B) {
	for _, topo := range graph.Figure1() {
		b.Run(topo.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var firstMeal int64
			for i := 0; i < b.N; i++ {
				res := simulateUntil(b, topo, "GDP1", algo.Options{}, "adversary", uint64(i)+1, sim.RunOptions{MaxSteps: 60_000, StopAfterTotalEats: 1})
				if !res.Progress() {
					b.Fatal("GDP1 failed to progress under the adversary")
				}
				firstMeal += res.FirstEatStep
			}
			b.ReportMetric(float64(firstMeal)/float64(b.N), "steps-to-first-meal")
		})
	}
}

// BenchmarkTheorem4Lockout measures GDP2 serving every philosopher on the
// Section 3 topology under round-robin scheduling (Theorem 4). Each run
// takes 20,000 steps; steps-to-feed-everyone counts the steps until the last
// philosopher started its first meal.
func BenchmarkTheorem4Lockout(b *testing.B) {
	topo := graph.Figure1A()
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		res := simulateUntil(b, topo, "GDP2", algo.Options{}, "round-robin", uint64(i)+1, sim.RunOptions{MaxSteps: 20_000})
		if slices.Contains(res.FirstEatBy, -1) {
			b.Fatalf("not everyone ate: %v", res.EatsBy)
		}
		steps += slices.Max(res.FirstEatBy) + 1
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps-to-feed-everyone")
}

// BenchmarkClassicRing is the sanity baseline: LR1 and LR2 on the topology
// for which Lehmann & Rabin proved them correct, under the adversary.
func BenchmarkClassicRing(b *testing.B) {
	for _, algorithm := range []string{"LR1", "LR2"} {
		b.Run(algorithm, func(b *testing.B) {
			topo := graph.Ring(5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := simulateOnce(b, topo, algorithm, "adversary", uint64(i)+1, 30_000)
				if !res.Progress() {
					b.Fatalf("%s starved on the classic ring", algorithm)
				}
			}
		})
	}
}

// BenchmarkAlgorithmsRing sweeps ring sizes for all four algorithms plus the
// centralized baselines (experiment E-B1, the efficiency dimension the paper
// leaves open).
func BenchmarkAlgorithmsRing(b *testing.B) {
	for _, size := range []int{5, 25, 101} {
		for _, algorithm := range []string{"LR1", "LR2", "GDP1", "GDP2", "ordered-forks", "ticket-box"} {
			b.Run(fmt.Sprintf("n=%d/%s", size, algorithm), func(b *testing.B) {
				topo := graph.Ring(size)
				b.ReportAllocs()
				var meals int64
				for i := 0; i < b.N; i++ {
					res := simulateOnce(b, topo, algorithm, "random", uint64(i)+1, 20_000)
					meals += res.TotalEats
				}
				b.ReportMetric(float64(meals)/float64(b.N), "meals/run")
			})
		}
	}
}

// BenchmarkNumberRangeSweep measures GDP1 with different number ranges m
// (experiment E-B2: the Theorem 3 bound m!/(m^k(m−k)!) improves with m).
func BenchmarkNumberRangeSweep(b *testing.B) {
	topo := graph.Figure1A()
	k := topo.NumForks()
	for _, mult := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%dk", mult), func(b *testing.B) {
			m := k * mult
			b.ReportAllocs()
			var firstMeal int64
			for i := 0; i < b.N; i++ {
				res := simulateUntil(b, topo, "GDP1", algo.Options{M: m}, "adversary", uint64(i)+1, sim.RunOptions{MaxSteps: 60_000, StopAfterTotalEats: 1})
				firstMeal += res.FirstEatStep
			}
			b.ReportMetric(float64(firstMeal)/float64(b.N), "steps-to-first-meal")
			b.ReportMetric(verify.DistinctNumberBound(m, k), "distinct-draw-bound")
		})
	}
}

// BenchmarkGuardedChoice measures the motivating application: processes with
// binary guarded choice committing via GDP2 on a random conflict graph
// (experiment E-PI).
func BenchmarkGuardedChoice(b *testing.B) {
	topo := graph.RandomMultigraph(24, 10, 7)
	b.ReportAllocs()
	var commits int64
	for i := 0; i < b.N; i++ {
		res := simulateOnce(b, topo, "GDP2", "random", uint64(i)+1, 40_000)
		commits += res.TotalEats
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
}

// BenchmarkRuntimeGoroutines measures the concurrent goroutine runtime
// (experiment E-RT): one op is a full 50ms concurrent execution of the
// algorithm's sim.Program, the one the simulator and the checker run.
func BenchmarkRuntimeGoroutines(b *testing.B) {
	for _, algorithm := range []string{dining.LR1, dining.GDP1, dining.GDP2} {
		b.Run(algorithm, func(b *testing.B) {
			topo := dining.Figure1A()
			b.ReportAllocs()
			var meals int64
			for i := 0; i < b.N; i++ {
				metrics, err := dining.RunConcurrent(context.Background(), topo, algorithm, uint64(i)+1, 50*time.Millisecond, 0)
				if err != nil {
					b.Fatal(err)
				}
				meals += metrics.TotalMeals
			}
			b.ReportMetric(float64(meals)/float64(b.N), "meals/op")
		})
	}
}

// BenchmarkAdversaryOverhead compares the cost of the adversarial scheduler
// against round-robin (the price of full-information scheduling). The
// per-decision cases run the way a trial batch does: one 10,000-step run per
// op on a recycled world, with one scheduler Reset between runs. Their
// ns/decision is the adversary's decision plus the step it drives; the
// round-robin case, also 10,000 steps per op, prices steps without the
// adversary. ring-70 needs two words per philosopher set.
func BenchmarkAdversaryOverhead(b *testing.B) {
	for _, c := range []struct {
		topo      *graph.Topology
		algorithm string
	}{{graph.Figure1A(), "LR1"}, {graph.Figure1A(), "GDP2"}, {graph.Ring(70), "LR1"}} {
		b.Run(fmt.Sprintf("per-decision/%s/%s", c.topo.Name(), c.algorithm), func(b *testing.B) {
			const steps = 10_000
			prog, err := algo.New(c.algorithm, algo.Options{})
			if err != nil {
				b.Fatal(err)
			}
			proto := sim.NewWorld(c.topo)
			prog.Init(proto)
			adv := sched.NewBoundedFair(sched.NewGreedyLivelock(), 512)
			rng := prng.New(1)
			var w *sim.World
			var res sim.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w = proto.CloneProtocolInto(w)
				w.ResetMetrics()
				adv.Reset()
				rng.Reseed(uint64(i) + 1)
				if err := sim.RunWorldInto(&res, w, prog, adv, rng, sim.RunOptions{MaxSteps: steps}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/decision")
		})
	}

	topo := graph.Figure1A()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("round-robin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(topo, prog, sched.NewRoundRobin(), prng.New(uint64(i)+1), sim.RunOptions{MaxSteps: 10_000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-livelock", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adv := sched.NewBoundedFair(sched.NewGreedyLivelock(), 512)
			if _, err := sim.Run(topo, prog, adv, prng.New(uint64(i)+1), sim.RunOptions{MaxSteps: 10_000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFaultInjection measures the fault layer at the Program seam.
// "none" is the nil-fault path — no wrapper at all, the configuration that
// must stay within noise of the pre-fault-layer engine (the crashed flag
// rides in a previously-always-zero bit of the state key, so the only
// candidate cost is the extra PhilState field). "zero-rate" wraps the
// program in a rate-0 crash-rejoin model, isolating the pure wrapper
// overhead of one passthrough delegation per outcome call; the active
// models actually perturb the run and pay for their extra branches. The
// explore cases measure the model checker on the perturbed state space,
// which genuinely grows (crash/rejoin interleavings; in-flight grant
// counters for delayed-grants). "delayed-zero" is the rate-0 delayed-grants
// wrapper — like zero-rate it must sit within noise of none, since no grant
// ever enters flight and the pending key suffix stays absent.
func BenchmarkFaultInjection(b *testing.B) {
	faultModel := func(spec string) fault.Model {
		if spec == "" {
			return nil
		}
		m, err := fault.NewFromSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	specs := []struct{ name, spec string }{
		{"none", ""},
		{"zero-rate", "crash-rejoin:0"},
		{"crash-rejoin", "crash-rejoin:0.05,0.5"},
		{"lossy-grants", "lossy-grants:0.2"},
		{"delayed-zero", "delayed-grants:0"},
		{"delayed-grants", "delayed-grants:0.2,2"},
	}
	b.Run("simulate", func(b *testing.B) {
		topo := graph.Ring(9)
		for _, c := range specs {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				var meals int64
				for i := 0; i < b.N; i++ {
					eng, err := dining.New(topo, dining.GDP1, dining.WithSeed(uint64(i)+1), dining.WithMaxSteps(20_000), dining.WithFaults(c.spec))
					if err != nil {
						b.Fatal(err)
					}
					res, err := eng.Run(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					meals += res.TotalEats
				}
				b.ReportMetric(float64(meals)/float64(b.N), "meals/run")
			})
		}
	})
	b.Run("explore", func(b *testing.B) {
		topo := graph.Theorem2Minimal()
		for _, c := range specs {
			m := faultModel(c.spec)
			b.Run(c.name, func(b *testing.B) {
				prog, err := algo.New("LR1", algo.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if m != nil {
					prog = m.Wrap(topo, prog)
				}
				b.ReportAllocs()
				var states int
				for i := 0; i < b.N; i++ {
					ss, err := modelcheck.Explore(topo, prog, modelcheck.Options{Workers: 1})
					if err != nil {
						b.Fatal(err)
					}
					states = ss.NumStates()
				}
				b.ReportMetric(float64(states), "states")
			})
		}
	})
	// The runtime cases measure the same fault-wrapped programs on
	// goroutines: RunConcurrent runs the engine's program, so every model
	// perturbs each step exactly as in the explore cases above.
	b.Run("runtime", func(b *testing.B) {
		topo := graph.Ring(5)
		for _, c := range []struct{ name, spec string }{
			{"none", ""},
			{"crash-rejoin", "crash-rejoin:0.05,0.5"},
			{"freeze", "freeze:0.05"},
			{"lossy-grants", "lossy-grants:0.1"},
			{"delayed-grants", "delayed-grants:0.1,2"},
		} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				var meals int64
				for i := 0; i < b.N; i++ {
					eng, err := dining.New(topo, dining.GDP2, dining.WithSeed(uint64(i)+1), dining.WithFaults(c.spec))
					if err != nil {
						b.Fatal(err)
					}
					metrics, err := eng.RunConcurrent(context.Background(), 20*time.Millisecond, 0)
					if err != nil {
						b.Fatal(err)
					}
					meals += metrics.TotalMeals
				}
				b.ReportMetric(float64(meals)/float64(b.N), "meals/run")
			})
		}
	})
}

// BenchmarkModelCheckerScaling measures state-space exploration itself at
// one worker and one shard, where the level loop runs every phase inline on
// the calling goroutine: the cost of an exploration on a one-CPU host.
func BenchmarkModelCheckerScaling(b *testing.B) {
	cases := []struct {
		name string
		topo *graph.Topology
		alg  string
	}{
		{"theta/LR1", graph.Theorem2Minimal(), "LR1"},
		{"theta/GDP1", graph.Theorem2Minimal(), "GDP1"},
		{"t1min/LR1", graph.Theorem1Minimal(), "LR1"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			prog, err := algo.New(c.alg, algo.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				ss, err := modelcheck.Explore(c.topo, prog, modelcheck.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				states = ss.NumStates()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkAnalyses measures the worklist graph-analysis engine against the
// retained reference sweeps on the Theorem 1 instances: the safety-game/trap
// analysis (whose end-component rounds run the SCC decomposition) and the
// dead-region analysis, each as
//
//   - sweep: the pre-worklist whole-state-space fixpoint iteration
//     (graphalgtest oracles — the PR-4 baseline),
//   - cold:  worklist including a one-shot predecessor-index build,
//   - warm:  worklist over the shared cached index (the steady state of
//     Engine.Check, where every property and every per-philosopher lockout
//     labelling reuses one index).
//
// The exploration is outside the timed region; one op is one analysis.
func BenchmarkAnalyses(b *testing.B) {
	for _, c := range []struct {
		name string
		alg  string
	}{
		{"t1min-LR1", "LR1"},
		{"t1min-GDP1", "GDP1"},
	} {
		prog, err := algo.New(c.alg, algo.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ss, err := modelcheck.Explore(graph.Theorem1Minimal(), prog, modelcheck.Options{})
		if err != nil {
			b.Fatal(err)
		}
		warm := ss.PredecessorIndex()
		warm.MaximalTrap(ss.Bad) // prime the scratch pool

		b.Run("trap/"+c.name+"/sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphalgtest.MaximalTrap(ss, ss.Bad)
			}
		})
		b.Run("trap/"+c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphalg.NewPredecessorIndex(ss, 1).MaximalTrap(ss.Bad)
			}
		})
		b.Run("trap/"+c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warm.MaximalTrap(ss.Bad)
			}
		})

		b.Run("deadregion/"+c.name+"/sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphalgtest.DeadRegionStates(ss, ss.Bad)
			}
		})
		b.Run("deadregion/"+c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphalg.NewPredecessorIndex(ss, 1).DeadRegionStates(ss.Bad)
			}
		})
		b.Run("deadregion/"+c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				warm.DeadRegionStates(ss.Bad)
			}
		})
	}
}

// BenchmarkSymmetry measures the orbit-quotient exploration against the
// unreduced baseline on growing rings under LR1 — side-symmetric, so the
// full dihedral group of order 2n applies and the quotient must shrink the
// space by at least n× (the acceptance floor; the observed factor grows
// with n because larger rings have fewer states fixed by any symmetry).
// Each op is one full exploration at one worker; the "states" metric is
// the explored count and "reduction-x" the plain/quotient ratio.
func BenchmarkSymmetry(b *testing.B) {
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{3, 4, 5} {
		topo := graph.Ring(n)
		canon, err := graph.NewOrbitCanonicalizer(topo, graph.CanonOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var plainStates, quotStates int
		b.Run(fmt.Sprintf("ring-%d/LR1/plain", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ss, err := modelcheck.Explore(topo, prog, modelcheck.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				plainStates = ss.NumStates()
			}
			b.ReportMetric(float64(plainStates), "states")
		})
		b.Run(fmt.Sprintf("ring-%d/LR1/quotient", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ss, err := modelcheck.Explore(topo, prog, modelcheck.Options{Workers: 1, Symmetry: canon})
				if err != nil {
					b.Fatal(err)
				}
				quotStates = ss.NumStates()
			}
			ratio := float64(plainStates) / float64(quotStates)
			if ratio < float64(n) {
				b.Fatalf("ring-%d quotient reduction %.2fx < %dx floor (%d -> %d states)", n, ratio, n, plainStates, quotStates)
			}
			b.ReportMetric(float64(quotStates), "states")
			b.ReportMetric(ratio, "reduction-x")
		})
	}
}

// BenchmarkParallelExplore compares the level-synchronous BFS on the largest
// model-checked instance (Theorem 1 on GDP1, ~64k states) across the
// (workers, shards) grid: one worker and one shard, every phase inline; the
// parallel expansion funneled through one shard; and the fully sharded
// configurations, in which interning is parallel per shard too. The dense
// numbering and the transition table of every explored space are identical;
// only wall-clock differs.
func BenchmarkParallelExplore(b *testing.B) {
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	topo := graph.Theorem1Minimal()
	for _, cfg := range []struct {
		name            string
		workers, shards int
	}{
		{"t1min/GDP1/workers=1/shards=1", 1, 1},
		{"t1min/GDP1/workers=all/shards=1", 0, 1},
		{"t1min/GDP1/workers=all/shards=all", 0, 0},
		{"t1min/GDP1/workers=all/shards=64", 0, 64},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := modelcheck.Explore(topo, prog, modelcheck.Options{Workers: cfg.workers, Shards: cfg.shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
