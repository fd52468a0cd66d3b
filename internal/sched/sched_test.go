package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
)

// countingProgram is a trivial program for scheduler unit tests: every action
// is a no-op.
type countingProgram struct{}

func (countingProgram) Name() string    { return "counting" }
func (countingProgram) Init(*sim.World) {}
func (countingProgram) Symmetric() bool { return true }
func (countingProgram) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	return append(buf, sim.Outcome{Prob: 1, Label: "noop", Apply: func(*sim.World, graph.PhilID, int64) {}})
}

// stuck always picks philosopher 0: as a scheduler it is unfair, and as an
// advisor it is the most stubborn strategy there is.
type stuck struct{}

func (stuck) Name() string                   { return "stuck" }
func (stuck) Next(*sim.World) graph.PhilID   { return 0 }
func (stuck) Advise(*sim.World) graph.PhilID { return 0 }

func TestRoundRobinCyclesThroughAll(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(4))
	s := NewRoundRobin()
	var got []graph.PhilID
	for i := 0; i < 8; i++ {
		got = append(got, s.Next(w))
	}
	want := []graph.PhilID{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin sequence %v, want %v", got, want)
		}
	}
}

func TestUniformRandomCoversEveryone(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(5))
	s := NewUniformRandom(prng.New(1))
	seen := map[graph.PhilID]int{}
	for i := 0; i < 2000; i++ {
		seen[s.Next(w)]++
	}
	for p := 0; p < 5; p++ {
		if seen[graph.PhilID(p)] < 200 {
			t.Errorf("philosopher %d scheduled only %d/2000 times", p, seen[graph.PhilID(p)])
		}
	}
}

func TestStickySchedulesBursts(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(3))
	s := NewSticky(4)
	var got []graph.PhilID
	for i := 0; i < 12; i++ {
		got = append(got, s.Next(w))
	}
	for i := 0; i < 4; i++ {
		if got[i] != 0 || got[4+i] != 1 || got[8+i] != 2 {
			t.Fatalf("sticky sequence %v not in bursts of 4", got)
		}
	}
	if NewSticky(0).Burst != 1 {
		t.Error("NewSticky should clamp burst to at least 1")
	}
}

func TestHungryFirstPrefersBusyPhilosophers(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(4))
	w.BecomeHungry(2)
	s := NewHungryFirst(prng.New(3))
	for i := 0; i < 50; i++ {
		if got := s.Next(w); got != 2 {
			t.Fatalf("hungry-first scheduled %d while only philosopher 2 is hungry", got)
		}
	}
	// With nobody hungry it still returns someone valid.
	w2 := sim.NewWorld(graph.Ring(4))
	if got := s.Next(w2); got < 0 || int(got) >= 4 {
		t.Fatalf("hungry-first returned invalid philosopher %d", got)
	}
}

func TestFairnessMonitorMeasuresGaps(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := sim.NewWorld(topo)
	mon := NewFairnessMonitor(NewRoundRobin())
	for i := 0; i < 30; i++ {
		mon.Next(w)
	}
	if got := mon.MaxGap(); got != 3 {
		t.Errorf("round robin max gap = %d, want 3", got)
	}
	if mon.step != 30 {
		t.Errorf("monitor counted %d steps, want 30", mon.step)
	}
	if mon.Report() == "" {
		t.Error("empty fairness report")
	}
}

func TestFairnessMonitorDetectsUnfairness(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(3))
	mon := NewFairnessMonitor(stuck{})
	for i := 0; i < 100; i++ {
		mon.Next(w)
	}
	if mon.MaxGap() < 100 {
		t.Errorf("MaxGap = %d, want >= 100 for never-scheduled philosophers", mon.MaxGap())
	}
}

func TestStubbornForcesFairness(t *testing.T) {
	t.Parallel()
	// An advisor that always wants philosopher 0; the stubborn wrapper must
	// still schedule everyone.
	s := NewStubborn(stuck{})
	topo := graph.Ring(4)
	res, err := sim.Run(topo, countingProgram{}, s, prng.New(1), sim.RunOptions{MaxSteps: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for p, c := range res.ScheduledCount {
		if c == 0 {
			t.Errorf("stubborn wrapper never scheduled philosopher %d", p)
		}
	}
	// The window grows each time the wrapper is forced.
	if s.window <= DefaultWindow {
		t.Errorf("window should have grown beyond %d, got %d", DefaultWindow, s.window)
	}
}

func TestBoundedFairRespectsWindow(t *testing.T) {
	t.Parallel()
	adv := stuck{}
	s := NewBoundedFair(adv, 50)
	mon := NewFairnessMonitor(s)
	topo := graph.Ring(5)
	res, err := sim.Run(topo, countingProgram{}, mon, prng.New(1), sim.RunOptions{MaxSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxScheduleGap > 55 {
		t.Errorf("bounded-fair(50) produced a scheduling gap of %d", res.MaxScheduleGap)
	}
	// The stuck advisor only ever asks for P0, so every scheduling of
	// another philosopher was forced.
	for p, c := range res.ScheduledCount {
		if c == 0 {
			t.Errorf("bounded-fair never forced philosopher %d against the stubborn advisor", p)
		}
	}
	if got := NewBoundedFair(adv, 0).window(); got != DefaultBoundedWindow {
		t.Errorf("default window = %d, want %d", got, DefaultBoundedWindow)
	}
}

func TestGreedyLivelockReturnsValidPhilosophers(t *testing.T) {
	t.Parallel()
	// Whatever the state, the advisor must return a valid philosopher.
	topo := graph.Figure1A()
	adv := NewGreedyLivelock()
	w := sim.NewWorld(topo)
	rng := prng.New(5)
	for i := 0; i < 200; i++ {
		p := adv.Advise(w)
		if int(p) < 0 || int(p) >= topo.NumPhilosophers() {
			t.Fatalf("advisor returned invalid philosopher %d", p)
		}
		// Drive the world with a random scheduler so states vary.
		q := graph.PhilID(rng.Intn(topo.NumPhilosophers()))
		st := &w.Phils[q]
		if st.Phase == sim.Thinking {
			w.BecomeHungry(q)
		}
	}
	if NewGreedyLivelock().Name() == "" || NewGreedyLivelock(1, 2).Name() == "" {
		t.Error("advisor names empty")
	}
}

// TestResetMatchesFresh pins the sim.ResettableScheduler contract for every
// resettable scheduler of this package: after consuming decisions, Reset
// (plus reseeding the shared RNG in place, as the verify trial pool does)
// must reproduce the decision stream of a newly constructed instance.
func TestResetMatchesFresh(t *testing.T) {
	t.Parallel()
	w := sim.NewWorld(graph.Ring(6))
	const seed, steps = 11, 200
	cases := []struct {
		name string
		make func(rng *prng.Source) sim.ResettableScheduler
	}{
		{"round-robin", func(*prng.Source) sim.ResettableScheduler { return NewRoundRobin() }},
		{"uniform-random", func(rng *prng.Source) sim.ResettableScheduler { return NewUniformRandom(rng) }},
		{"sticky", func(*prng.Source) sim.ResettableScheduler { return NewSticky(3) }},
		{"hungry-first", func(rng *prng.Source) sim.ResettableScheduler { return NewHungryFirst(rng) }},
		{"stubborn", func(*prng.Source) sim.ResettableScheduler { return NewStubborn(NewGreedyLivelock()) }},
		{"bounded-fair", func(*prng.Source) sim.ResettableScheduler { return NewBoundedFair(NewGreedyLivelock(), 16) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := prng.New(seed)
			s := c.make(rng)
			for i := 0; i < steps; i++ {
				s.Next(w) // consume an arbitrary prefix
			}
			rng.Reseed(seed)
			s.Reset()
			freshRNG := prng.New(seed)
			fresh := c.make(freshRNG)
			for i := 0; i < steps; i++ {
				if got, want := s.Next(w), fresh.Next(w); got != want {
					t.Fatalf("step %d: reset scheduler chose %d, fresh instance chose %d", i, got, want)
				}
			}
		})
	}
}
