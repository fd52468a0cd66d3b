package modelcheck

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/graphalg"
)

// Trap describes a "starvation trap": an end component of the sub-MDP in
// which no protected philosopher ever eats, offering an allowed action for
// every philosopher.
//
// Interpretation (see the package comment): if Exists and Reachable are true,
// a fair adversary can — with positive probability — confine the system to
// the trap forever, scheduling every philosopher infinitely often while no
// protected philosopher ever eats. This is precisely the negative result of
// Theorems 1 and 2. If no trap exists anywhere in the reachable state space,
// no fair adversary can starve the protected set forever on this instance
// with positive probability by staying in a fixed recurrent pattern — the
// structure behind Theorems 3 and 4.
//
// Trap is the dining-flavoured form of graphalg.Trap: actions are named as
// philosophers.
type Trap struct {
	// Exists reports whether a fully covered end component exists within the
	// reachable safe region.
	Exists bool
	// Reachable reports whether some state of the trap is reachable from the
	// initial state (with positive probability under some scheduling).
	Reachable bool
	// States is the number of states in the largest fully covered trap found.
	States int
	// SafeRegionStates is the number of reachable states in which the
	// adversary has at least one move that surely avoids an immediate meal
	// forever (the greatest safe region of the safety game).
	SafeRegionStates int
	// WitnessState is the minimum state index over every fully covered trap
	// (indices are discovery order, so this is the shallowest trap state
	// found), or -1 when no trap exists. It is the anchor for counterexample
	// extraction (StateSpace.CounterexampleTo), which therefore lifts the
	// shortest concrete witness path.
	WitnessState int
	// CoveredPhilosophers lists, for the largest candidate end component
	// found, which philosophers have an allowed action somewhere inside it.
	// When Exists is false this explains what was missing.
	CoveredPhilosophers []graph.PhilID
}

// FindStarvationTrap analyses the explored state space for a starvation trap
// against the protected set that was configured at exploration time. The
// three-step computation (safety game, maximal end components, philosopher
// coverage) runs as worklist algorithms over the space's predecessor index
// (see graphalg.PredecessorIndex.MaximalTrap), once per space: later calls,
// and FindStarvationTrapAgainst of the same set, return the stored result.
func (ss *StateSpace) FindStarvationTrap() Trap {
	return ss.trapAgainst(ss.protected)
}

// FindStarvationTrapAgainst runs the trap analysis against an arbitrary
// protected set — nil or empty means every philosopher — using the per-state
// eating bitmasks recorded during exploration. It is what the lockout-freedom
// property uses to test each philosopher individually without re-exploring.
// Each set is analysed once per space and keyed by its eating bitmask, so a
// repeated set, a set equal to the configured one (FindStarvationTrap) and
// every later check of the space return the stored trap; concurrent calls
// share the one predecessor index and draw their scratch from its pool. It
// returns an error on instances with more than 64 philosophers (which carry
// no masks) or an out-of-range philosopher.
func (ss *StateSpace) FindStarvationTrapAgainst(protected []graph.PhilID) (Trap, error) {
	if ss.eating == nil {
		return Trap{}, fmt.Errorf("modelcheck: per-set trap analysis needs the eating bitmasks, which cover at most %d philosophers (topology has %d)", maskablePhils, ss.NumPhils)
	}
	for _, p := range protected {
		if int(p) < 0 || int(p) >= ss.NumPhils {
			return Trap{}, fmt.Errorf("modelcheck: protected philosopher %d out of range [0, %d)", p, ss.NumPhils)
		}
	}
	return ss.trapAgainst(philMask(ss.NumPhils, protected)), nil
}

// philMask returns the eating bitmask of a protected set on n philosophers:
// every philosopher when the set is empty, else its members in [0, n) — a
// member outside that range never eats, so dropping it leaves the labelling
// unchanged. It is 0 when n exceeds maskablePhils, where no masks exist.
func philMask(n int, protected []graph.PhilID) uint64 {
	if n > maskablePhils {
		return 0
	}
	if len(protected) == 0 {
		return ^uint64(0) >> (maskablePhils - n)
	}
	var mask uint64
	for _, p := range protected {
		if p >= 0 && int(p) < n {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// trapFrom converts a generic graphalg trap into the dining form.
func trapFrom(t graphalg.Trap) Trap {
	out := Trap{
		Exists:           t.Exists,
		Reachable:        t.Reachable,
		States:           t.States,
		SafeRegionStates: t.SafeRegionStates,
		WitnessState:     t.WitnessState,
	}
	if len(t.CoveredActions) > 0 {
		out.CoveredPhilosophers = make([]graph.PhilID, len(t.CoveredActions))
		for i, a := range t.CoveredActions {
			out.CoveredPhilosophers[i] = graph.PhilID(a)
		}
	}
	return out
}
