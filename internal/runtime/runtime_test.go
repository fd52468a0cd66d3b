package runtime

import (
	"cmp"
	"context"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
)

// program returns the registered algorithm configured with opts, wrapped by
// the fault model of spec unless spec is empty — the assembly
// dining.Engine performs for every executor.
func program(t testing.TB, topo *graph.Topology, name, spec string, opts algo.Options) sim.Program {
	t.Helper()
	prog, err := algo.New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spec == "" {
		return prog
	}
	m, err := fault.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(topo); err != nil {
		t.Fatal(err)
	}
	return m.Wrap(topo, prog)
}

func TestRunRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), Config{Program: program(t, graph.Ring(3), "GDP1", "", algo.Options{})}); err == nil {
		t.Error("Run accepted a missing topology")
	}
	if _, err := Run(context.Background(), Config{Topology: graph.Ring(3)}); err == nil {
		t.Error("Run accepted a missing program")
	}
}

// TestAllAlgorithmsServeEveryoneOnClassicRing runs every registered
// algorithm that cannot deadlock on an odd ring to a meal target.
func TestAllAlgorithmsServeEveryoneOnClassicRing(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(5)
	for _, name := range algo.Names() {
		if name == "colored" || name == "naive-left-first" {
			continue // both can wedge in a circular hold-and-wait here
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			metrics, err := Run(context.Background(), Config{
				Topology:                  topo,
				Program:                   program(t, topo, name, "", algo.Options{}),
				TargetMealsPerPhilosopher: 3,
				MaxDuration:               10 * time.Second,
				Seed:                      1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(metrics.Starved) != 0 {
				t.Fatalf("%s starved philosophers %v (meals %v)", name, metrics.Starved, metrics.Meals)
			}
			for p, meals := range metrics.Meals {
				if meals < 3 {
					t.Errorf("%s: philosopher %d completed %d meals, want >= 3", name, p, meals)
				}
			}
			if metrics.JainIndex <= 0 || metrics.JainIndex > 1 {
				t.Errorf("%s: implausible Jain index %v", name, metrics.JainIndex)
			}
			if metrics.TotalMeals < 15 {
				t.Errorf("%s: total meals %d, want >= 15", name, metrics.TotalMeals)
			}
			if metrics.MealsPerSecond <= 0 {
				t.Errorf("%s: throughput not recorded", name)
			}
		})
	}
}

func TestGDPAlgorithmsOnGeneralizedTopologies(t *testing.T) {
	t.Parallel()
	topos := []*graph.Topology{graph.Figure1A(), graph.Theorem2Minimal(), graph.RingWithChord(6, 3)}
	for _, topo := range topos {
		for _, name := range []string{"GDP1", "GDP2"} {
			t.Run(topo.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				metrics, err := Run(context.Background(), Config{
					Topology:                  topo,
					Program:                   program(t, topo, name, "", algo.Options{}),
					TargetMealsPerPhilosopher: 2,
					MaxDuration:               10 * time.Second,
					Seed:                      7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(metrics.Starved) != 0 {
					t.Errorf("%s on %s starved %v", name, topo.Name(), metrics.Starved)
				}
			})
		}
	}
}

func TestRunHonoursContextCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	topo := graph.Ring(3)
	if _, err := Run(ctx, Config{
		Topology:    topo,
		Program:     program(t, topo, "GDP1", "", algo.Options{}),
		MaxDuration: 30 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Run did not stop promptly after cancellation")
	}
}

func TestRunDurationBound(t *testing.T) {
	t.Parallel()
	start := time.Now()
	topo := graph.Figure1B()
	metrics, err := Run(context.Background(), Config{
		Topology:    topo,
		Program:     program(t, topo, "GDP2", "", algo.Options{}),
		MaxDuration: 300 * time.Millisecond,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v, expected to stop near the 300ms bound", elapsed)
	}
	if metrics.TotalMeals == 0 {
		t.Error("no meals completed within the duration bound")
	}
	if metrics.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// TestRunMessageLevelFaults pins that the message-level fault models, which
// are program wrappers like the crash family, run on goroutines: every
// philosopher still reaches the meal target.
func TestRunMessageLevelFaults(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	for _, spec := range []string{"lossy-grants:0.2", "delayed-grants:0.1,2"} {
		m, err := Run(context.Background(), Config{
			Topology:                  topo,
			Program:                   program(t, topo, "LR1", spec, algo.Options{}),
			TargetMealsPerPhilosopher: 3,
			MaxDuration:               10 * time.Second,
			Seed:                      5,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for p, meals := range m.Meals {
			if meals < 3 {
				t.Errorf("%s: philosopher %d ate %d meals, want >= 3", spec, p, meals)
			}
		}
		for p := range m.Crashes {
			if m.Crashes[p] != 0 || m.Rejoins[p] != 0 {
				t.Errorf("%s: philosopher %d crashed/rejoined %d/%d times", spec, p, m.Crashes[p], m.Rejoins[p])
			}
		}
	}
}

// TestFreezeStarvesTargets pins the semantics of a certain freeze: the
// targeted philosopher crashes at its first step and never eats, while the
// rest of the table keeps serving meals.
func TestFreezeStarvesTargets(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(5)
	m, err := Run(context.Background(), Config{
		Topology:    topo,
		Program:     program(t, topo, "LR1", "freeze:1@2", algo.Options{}),
		MaxDuration: 300 * time.Millisecond,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meals[2] != 0 {
		t.Errorf("frozen philosopher 2 ate %d meals", m.Meals[2])
	}
	if m.Crashes[2] != 1 || m.Rejoins[2] != 0 {
		t.Errorf("philosopher 2 crashes/rejoins = %d/%d, want 1/0 (freeze is absorbing)", m.Crashes[2], m.Rejoins[2])
	}
	for p := 0; p < 5; p++ {
		if p == 2 {
			continue
		}
		if m.Crashes[p] != 0 {
			t.Errorf("untargeted philosopher %d crashed %d times", p, m.Crashes[p])
		}
		if m.Meals[p] == 0 {
			t.Errorf("philosopher %d starved next to a frozen neighbour", p)
		}
	}
}

// TestCrashRejoinRunsToTarget checks that crash-rejoin injection perturbs a
// run without wedging it: every philosopher still reaches the meal target,
// and the crash/rejoin ledger is consistent (each rejoin answers a crash).
func TestCrashRejoinRunsToTarget(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(4)
	m, err := Run(context.Background(), Config{
		Topology:                  topo,
		Program:                   program(t, topo, "GDP2", "crash-rejoin:0.3,0.5", algo.Options{}),
		TargetMealsPerPhilosopher: 5,
		MaxDuration:               5 * time.Second,
		Seed:                      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var crashes int64
	for p := 0; p < 4; p++ {
		if m.Meals[p] < 5 {
			t.Errorf("philosopher %d ate %d meals, want >= 5", p, m.Meals[p])
		}
		if m.Rejoins[p] > m.Crashes[p] || m.Crashes[p] > m.Rejoins[p]+1 {
			t.Errorf("philosopher %d crashed %d times and rejoined %d times", p, m.Crashes[p], m.Rejoins[p])
		}
		crashes += m.Crashes[p]
	}
	if crashes == 0 {
		t.Error("a 0.3-rate crash-rejoin run recorded no crashes")
	}
}

// TestFaultDecisionStreamIsDeterministic pins that fault decisions come from
// the philosophers' seeded streams: under a certain freeze every
// philosopher's first step is its crash whatever the interleaving, so two
// runs of the same seed record exactly one crash each and no meal.
func TestFaultDecisionStreamIsDeterministic(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(4)
	run := func() *Metrics {
		m, err := Run(context.Background(), Config{
			Topology:    topo,
			Program:     program(t, topo, "LR1", "freeze:1", algo.Options{}),
			MaxDuration: 100 * time.Millisecond,
			Seed:        42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	for p := 0; p < 4; p++ {
		if a.Crashes[p] != 1 || b.Crashes[p] != 1 {
			t.Errorf("philosopher %d crashes = %d/%d across runs, want 1/1", p, a.Crashes[p], b.Crashes[p])
		}
	}
	if a.TotalMeals != 0 || b.TotalMeals != 0 {
		t.Errorf("fully frozen table ate %d/%d meals", a.TotalMeals, b.TotalMeals)
	}
}

func TestMetricsOmitFaultCountersWithoutFaults(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	m, err := Run(context.Background(), Config{
		Topology:                  topo,
		Program:                   program(t, topo, "LR1", "", algo.Options{}),
		TargetMealsPerPhilosopher: 1,
		MaxDuration:               2 * time.Second,
		Seed:                      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Crashes != nil || m.Rejoins != nil {
		t.Errorf("fault-free metrics carry crash counters: %v / %v", m.Crashes, m.Rejoins)
	}
}

// hold is one recorded hold of a concurrent run.
type hold struct {
	stamp    int64
	phil     graph.PhilID
	outcomes []int
}

// TestConcurrentRunsReplay is the conformance grid: a concurrent run's
// holds, ordered by their clock stamps, are a path of the MDP the model
// checker explores. Replaying them through trace.Build must reach the final
// state the goroutines left behind, with the meal counts the runtime
// reported, for every registered algorithm and fault model and for
// non-default algorithm options.
func TestConcurrentRunsReplay(t *testing.T) {
	t.Parallel()
	type runCase struct {
		topo *graph.Topology
		alg  string
		opts algo.Options
		tag  string
	}
	var cases []runCase
	for _, name := range algo.Names() {
		cases = append(cases, runCase{graph.Ring(5), name, algo.Options{}, ""})
	}
	for _, topo := range []*graph.Topology{graph.Figure1A(), graph.Theorem2Minimal()} {
		cases = append(cases, runCase{topo, "GDP1", algo.Options{}, ""}, runCase{topo, "GDP2", algo.Options{}, ""})
	}
	cases = append(cases,
		runCase{graph.Ring(5), "GDP1", algo.Options{M: 7}, "m-7"},
		runCase{graph.Ring(5), "LR2", algo.Options{CourtesyOnBothForks: true}, "courtesy-both"},
		runCase{graph.Ring(5), "GDP2", algo.Options{CourtesyOnBothForks: true}, "courtesy-both"},
	)
	faults := []string{"", "crash-rejoin", "freeze", "lossy-grants", "delayed-grants"}
	for _, c := range cases {
		for _, spec := range faults {
			name := c.topo.Name() + "/" + c.alg
			if c.tag != "" {
				name += "/" + c.tag
			}
			if spec != "" {
				name += "/" + spec
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				prog := program(t, c.topo, c.alg, spec, c.opts)
				holds := make([][]hold, c.topo.NumPhilosophers())
				m, final, err := run(context.Background(), Config{
					Topology:                  c.topo,
					Program:                   prog,
					TargetMealsPerPhilosopher: 20,
					MaxDuration:               50 * time.Millisecond,
					Seed:                      9,
					// Each philosopher's goroutine appends to its own log.
					onHold: func(stamp int64, p graph.PhilID, outcomes []int) {
						holds[p] = append(holds[p], hold{stamp, p, slices.Clone(outcomes)})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := final.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				all := slices.Concat(holds...)
				slices.SortFunc(all, func(a, b hold) int { return cmp.Compare(a.stamp, b.stamp) })
				var steps []trace.Step
				for _, h := range all {
					for _, o := range h.outcomes {
						steps = append(steps, trace.Step{Phil: int(h.phil), Outcome: o})
					}
				}
				tr, err := trace.Build(c.topo, prog, "", steps)
				if err != nil {
					t.Fatalf("replaying %d holds: %v", len(all), err)
				}
				if want := hex.EncodeToString(final.AppendKey(nil)); tr.FinalKey != want {
					t.Fatalf("replay of %d holds ends in %s, the run in %s", len(all), tr.FinalKey, want)
				}
				replayed, err := trace.Replay(c.topo, prog, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(replayed.EatsBy, m.Meals) {
					t.Errorf("replayed meals %v, the runtime counted %v", replayed.EatsBy, m.Meals)
				}
				t.Logf("%d holds, %d steps, meals %v", len(all), len(steps), m.Meals)
			})
		}
	}
}
