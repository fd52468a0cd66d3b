package modelcheck

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// memoPath returns a shortest scheduler-choice path from the initial state to
// target, and whether target is reachable: each choice's action is the
// scheduled philosopher, and its outcome the index of the outcome taken, so
// the path replays on a fresh world. The breadth-first search lives in
// graphalg.PathTo: it visits actions in philosopher order and outcomes in
// outcome order, so the path is deterministic — the same for every
// exploration worker and shard count, since the dense state numbering itself
// is. Each target is searched once per space and its path kept (the search
// allocates per-state arrays, the path only its steps); the slice is shared
// and must not be modified.
func (ss *StateSpace) memoPath(target int) shortestPath {
	if target < 0 || target >= ss.NumStates() {
		return shortestPath{}
	}
	return ss.analyses().paths.get(target, func() shortestPath {
		choices, ok := graphalg.PathTo(ss, target)
		return shortestPath{choices: choices, ok: ok}
	})
}

// CounterexampleTo builds a replayable counterexample trace from the initial
// state to target: the memoized shortest scheduler-choice path (memoPath)
// completed (labels, probabilities, rendered final state, canonical final
// key) by re-executing it on a fresh world. property names the property the
// trace refutes. The trace itself is built per call, so every caller owns
// its copy; re-executing a path costs its length, not the space's size.
//
// On a symmetry-quotient space the stored path moves between orbits, not
// concrete states, so it is first lifted to a concrete scheduler path (see
// liftChoices); the returned trace replays on the unreduced semantics and
// verifies on an unreduced engine.
func (ss *StateSpace) CounterexampleTo(property string, target int) (*trace.Trace, error) {
	path := ss.memoPath(target)
	if !path.ok {
		return nil, fmt.Errorf("modelcheck: state %d is not reachable from the initial state", target)
	}
	var steps []trace.Step
	if ss.canon != nil {
		var err error
		steps, err = ss.liftChoices(path.choices)
		if err != nil {
			return nil, err
		}
	} else {
		steps = make([]trace.Step, len(path.choices))
		for i, c := range path.choices {
			steps[i] = trace.Step{Phil: c.Action, Outcome: c.Outcome}
		}
	}
	return trace.Build(ss.topo, ss.prog, property, steps)
}

// liftChoices translates a quotient scheduler path into a concrete one. The
// quotient path is replayed through the dense transition rows; in parallel a
// concrete world is advanced step by step, at each step scheduling the first
// (philosopher, outcome) pair — philosophers ascending, outcomes ascending —
// whose concrete successor canonicalizes into the path's next quotient state.
// Equivariance of the program under the quotient group guarantees such a pair
// exists (the quotient step executed from the orbit's representative, and the
// current concrete world is a group image of that representative), and the
// first-match rule makes the lift deterministic.
func (ss *StateSpace) liftChoices(choices []graphalg.Choice) ([]trace.Step, error) {
	steps := make([]trace.Step, len(choices))
	w := sim.NewWorld(ss.topo)
	ss.prog.Init(w)
	q := ss.initial
	var buf []byte
	for i, c := range choices {
		succs := graphalg.Succs(ss, q, c.Action)
		if c.Outcome < 0 || c.Outcome >= len(succs) {
			return nil, fmt.Errorf("modelcheck: quotient path step %d schedules outcome %d of P%d in state %d, which has %d outcomes",
				i, c.Outcome, c.Action, q, len(succs))
		}
		next := int(succs[c.Outcome])
		found := false
	search:
		for a := 0; a < ss.NumPhils; a++ {
			pid := graph.PhilID(a)
			outcomes := ss.prog.Outcomes(w, pid, nil)
			for o := range outcomes {
				succ := w.Clone()
				succOut := ss.prog.Outcomes(succ, pid, nil)
				succOut[o].Do(succ, pid)
				succ.Step++
				buf = succ.AppendCanonicalKey(ss.canon, buf[:0])
				if int(ss.denseOf(buf)) == next {
					steps[i] = trace.Step{Phil: a, Outcome: o}
					w = succ
					found = true
					break search
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("modelcheck: cannot lift quotient counterexample step %d (state %d -> %d): no concrete transition canonicalizes into the target orbit",
				i, q, next)
		}
		q = next
	}
	return steps, nil
}
