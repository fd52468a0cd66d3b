// Package sched provides schedulers (the paper's adversaries) for the sim
// engine.
//
// The paper's execution model gives an adversary complete information about
// the computation so far and lets it pick the next philosopher to move; the
// only restriction considered is fairness (every philosopher is scheduled
// infinitely often). This package provides:
//
//   - neutral fair schedulers (round-robin, uniform random, sticky bursts,
//     hungry-first) used for throughput and correctness experiments;
//   - a fairness monitor that observes any scheduler and reports the largest
//     scheduling gap, so fairness is measured rather than assumed;
//   - the adversary machinery of Section 3: Advisors that encode a malicious
//     scheduling strategy; two wrappers that turn any advisor into a fair
//     scheduler, BoundedFair (every philosopher scheduled within a fixed
//     window) and Stubborn (a bound on how long it may ignore a philosopher
//     that grows each time it is forced, the paper's "level of stubbornness"
//     construction); and a greedy livelock advisor that defeats LR1 and LR2
//     on the topologies of Theorems 1 and 2.
package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
)

// RoundRobin schedules philosophers cyclically 0, 1, ..., n−1, 0, ... It is
// fair with gap exactly n.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements sim.Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Next implements sim.Scheduler.
func (s *RoundRobin) Next(w *sim.World) graph.PhilID {
	p := graph.PhilID(s.next % len(w.Phils))
	s.next++
	return p
}

// Reset implements sim.ResettableScheduler.
func (s *RoundRobin) Reset() { s.next = 0 }

// UniformRandom schedules a uniformly random philosopher each step. It is
// fair with probability 1.
type UniformRandom struct {
	rng *prng.Source
}

// NewUniformRandom returns a uniform random scheduler driven by rng.
func NewUniformRandom(rng *prng.Source) *UniformRandom {
	return &UniformRandom{rng: rng}
}

// Name implements sim.Scheduler.
func (*UniformRandom) Name() string { return "uniform-random" }

// Next implements sim.Scheduler.
func (s *UniformRandom) Next(w *sim.World) graph.PhilID {
	return graph.PhilID(s.rng.Intn(len(w.Phils)))
}

// Reset implements sim.ResettableScheduler: the scheduler itself is
// stateless beyond its RNG, which the recycling harness reseeds in place.
func (s *UniformRandom) Reset() {}

// Sticky schedules each philosopher for Burst consecutive steps before moving
// to the next (round-robin over bursts). It models coarse time slicing and is
// fair with gap (n−1)·Burst.
type Sticky struct {
	// Burst is the number of consecutive steps given to each philosopher
	// (minimum 1).
	Burst int

	pos   int
	count int
}

// NewSticky returns a sticky scheduler with the given burst length.
func NewSticky(burst int) *Sticky {
	if burst < 1 {
		burst = 1
	}
	return &Sticky{Burst: burst}
}

// Name implements sim.Scheduler.
func (s *Sticky) Name() string { return fmt.Sprintf("sticky-%d", s.Burst) }

// Next implements sim.Scheduler.
func (s *Sticky) Next(w *sim.World) graph.PhilID {
	n := len(w.Phils)
	if s.count >= s.Burst {
		s.count = 0
		s.pos = (s.pos + 1) % n
	}
	s.count++
	return graph.PhilID(s.pos % n)
}

// Reset implements sim.ResettableScheduler.
func (s *Sticky) Reset() { s.pos, s.count = 0, 0 }

// HungryFirst schedules a uniformly random hungry or eating philosopher when
// one exists, and a uniformly random philosopher otherwise. It keeps the
// system busy without being adversarial, and is fair with probability 1 under
// the saturated workload (a scheduled thinking philosopher becomes hungry).
type HungryFirst struct {
	rng  *prng.Source
	busy []graph.PhilID // per-step scratch, reused across Next calls
}

// NewHungryFirst returns a hungry-first random scheduler.
func NewHungryFirst(rng *prng.Source) *HungryFirst { return &HungryFirst{rng: rng} }

// Name implements sim.Scheduler.
func (*HungryFirst) Name() string { return "hungry-first" }

// Next implements sim.Scheduler.
func (s *HungryFirst) Next(w *sim.World) graph.PhilID {
	busy := s.busy[:0]
	for p := range w.Phils {
		if w.Phils[p].Phase != sim.Thinking {
			busy = append(busy, graph.PhilID(p))
		}
	}
	s.busy = busy
	if len(busy) == 0 {
		return graph.PhilID(s.rng.Intn(len(w.Phils)))
	}
	return busy[s.rng.Intn(len(busy))]
}

// Reset implements sim.ResettableScheduler: busy is per-step scratch whose
// contents never survive a Next call, so only the (externally reseeded) RNG
// carries state.
func (s *HungryFirst) Reset() {}
