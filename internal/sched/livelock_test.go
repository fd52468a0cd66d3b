package sched

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
)

// lockstep runs a fair wrapper over the reference advisor and checks, at
// every step, forced or not, that GreedyLivelock advises the same
// philosopher as the reference.
type lockstep struct {
	t      *testing.T
	ref    *referenceLivelock
	got    *GreedyLivelock
	inner  sim.Scheduler
	advice graph.PhilID // the reference's advice at the current step
}

func (l *lockstep) Name() string                   { return "lockstep" }
func (l *lockstep) Advise(*sim.World) graph.PhilID { return l.advice }

func (l *lockstep) Next(w *sim.World) graph.PhilID {
	l.advice = l.ref.Advise(w)
	if got := l.got.Advise(w); got != l.advice {
		l.t.Fatalf("step %d: GreedyLivelock advised P%d, the reference P%d (state %x)", w.Step, got, l.advice, w.AppendKey(nil))
	}
	return l.inner.Next(w)
}

// TestGreedyLivelockMatchesReference drives sim.Run with the reference
// advisor's choice under both fair wrappers and checks at every step that
// the bitset advisor chooses the same philosopher: every algorithm, the
// built-in topologies plus three whose sets take two words, with no fault,
// crash-rejoin and delayed-grants, and three protected sets. -short runs a
// subset.
func TestGreedyLivelockMatchesReference(t *testing.T) {
	t.Parallel()
	topos := []*graph.Topology{graph.Ring(70), graph.Star(66), graph.RandomMultigraph(100, 90, 3)}
	for _, name := range graph.TopologyNames() {
		topo, err := graph.NewTopology(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	algorithms := algo.Names()
	steps := int64(3000)
	if testing.Short() {
		topos = []*graph.Topology{graph.Ring(70), graph.RandomMultigraph(100, 90, 3), graph.Figure1A(), graph.Theorem2Minimal()}
		algorithms = []string{"LR1", "GDP2", "ordered-forks"}
		steps = 500
	}
	for _, topo := range topos {
		n := topo.NumPhilosophers()
		for _, algorithm := range algorithms {
			for _, spec := range []string{"", "crash-rejoin:0.05,0.5", "delayed-grants:0.2,2"} {
				for _, protected := range [][]graph.PhilID{nil, {0}, {1, graph.PhilID(n - 1)}} {
					for _, wrapper := range []string{"bounded-fair", "stubborn"} {
						name := fmt.Sprintf("%s/%s/%s/%v/%s", topo.Name(), algorithm, spec, protected, wrapper)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							prog, err := algo.New(algorithm, algo.Options{})
							if err != nil {
								t.Fatal(err)
							}
							if spec != "" {
								m, err := fault.NewFromSpec(spec)
								if err != nil {
									t.Fatal(err)
								}
								prog = m.Wrap(topo, prog)
							}
							l := &lockstep{t: t, ref: &referenceLivelock{Protected: protected}, got: NewGreedyLivelock(protected...)}
							if wrapper == "stubborn" {
								l.inner = NewStubborn(l)
							} else {
								l.inner = NewBoundedFair(l, int64(2*n))
							}
							if _, err := sim.Run(topo, prog, l, prng.New(uint64(n)), sim.RunOptions{MaxSteps: steps}); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
		}
	}
}

// TestGreedyLivelockMatchesReferenceOnRandomStates compares the two advisors
// on states no run of the adversary is likely to reach: every philosopher
// independently thinking, a reserve, committed, holding its first fork or
// eating, some grants in flight, tied and missing LastScheduled entries, and
// random protected sets (out-of-range IDs included). Every third state has
// every philosopher reach for its right fork, which on the star leaves the
// hub free and every philosopher one step from eating (rule 11).
func TestGreedyLivelockMatchesReferenceOnRandomStates(t *testing.T) {
	t.Parallel()
	rng := prng.New(7)
	for _, topo := range []*graph.Topology{graph.Figure1A(), graph.Theorem2Minimal(), graph.Star(66), graph.Ring(70), graph.RandomMultigraph(100, 90, 3)} {
		n := topo.NumPhilosophers()
		for trial := 0; trial < 400; trial++ {
			var protected []graph.PhilID
			for i := rng.Intn(4); i > 0; i-- {
				protected = append(protected, graph.PhilID(rng.Intn(n+2)))
			}
			w := randomState(topo, rng, trial%3 == 0)
			if trial%4 == 0 {
				w = w.CloneProtocol() // no LastScheduled at all
			}
			ref, got := &referenceLivelock{Protected: protected}, NewGreedyLivelock(protected...)
			if want, got := ref.Advise(w), got.Advise(w); got != want {
				t.Fatalf("%s, protected %v, state %x: GreedyLivelock advised P%d, the reference P%d", topo.Name(), protected, w.AppendKey(nil), got, want)
			}
		}
	}
}

// randomState returns a world on topo whose philosophers each take a random
// number of the first steps towards a meal, in random order; eager ones all
// select their right fork and stop once they hold it.
func randomState(topo *graph.Topology, rng *prng.Source, eager bool) *sim.World {
	w := sim.NewWorld(topo)
	for _, i := range rng.Perm(topo.NumPhilosophers()) {
		p := graph.PhilID(i)
		w.LastScheduled[p] = int64(rng.Intn(8)) - 1
		steps := rng.Intn(5)
		if eager {
			steps = 3
		}
		if steps == 0 {
			continue
		}
		w.BecomeHungry(p)
		if steps == 1 {
			continue
		}
		fk := topo.Forks(p)
		first := fk[rng.Intn(2)]
		if eager {
			first = fk[graph.Right]
		}
		second := topo.OtherFork(p, first)
		w.Commit(p, first)
		if steps == 2 {
			if rng.Intn(4) == 0 && w.IsFree(first) {
				w.GrantInFlight(p, first, 1)
			}
			continue
		}
		if !w.TryTake(p, first) {
			continue
		}
		w.MarkHoldingFirst(p)
		if steps == 4 && w.TryTake(p, second) {
			w.MarkHoldingSecond(p)
			w.StartEating(p)
		}
	}
	return w
}

// TestAdversaryDecisionDoesNotAllocate pins the adversary's steady state:
// once its sets are sized, a decision of either fair wrapper over
// GreedyLivelock allocates nothing, on one-word and two-word sets alike.
func TestAdversaryDecisionDoesNotAllocate(t *testing.T) {
	cases := []struct {
		topo      *graph.Topology
		protected []graph.PhilID
	}{
		{graph.Figure1A(), nil},
		{graph.Theorem2Minimal(), []graph.PhilID{0}},
		{graph.Ring(70), nil},
	}
	for _, c := range cases {
		for _, wrapper := range []string{"bounded-fair", "stubborn"} {
			t.Run(c.topo.Name()+"/"+wrapper, func(t *testing.T) {
				var s sim.Scheduler = NewBoundedFair(NewGreedyLivelock(c.protected...), 0)
				if wrapper == "stubborn" {
					s = NewStubborn(NewGreedyLivelock(c.protected...))
				}
				prog, err := algo.New("LR1", algo.Options{})
				if err != nil {
					t.Fatal(err)
				}
				w := sim.NewWorld(c.topo)
				prog.Init(w)
				rng := prng.New(1)
				var buf []sim.Outcome
				step := func() {
					p := s.Next(w)
					buf = prog.Outcomes(w, p, buf[:0])
					sim.SampleOutcome(buf, rng).Do(w, p)
					w.LastScheduled[p] = w.Step
					w.Step++
				}
				for i := 0; i < 1000; i++ {
					step() // size the sets and the outcome buffer
				}
				if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
					t.Errorf("%s over GreedyLivelock allocates %.2f times per decision, want 0", s.Name(), allocs)
				}
			})
		}
	}
}
