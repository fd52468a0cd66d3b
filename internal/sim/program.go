package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Outcome is one possible result of the next atomic action of a scheduled
// philosopher. Deterministic actions have a single outcome with probability 1;
// the random draws of the algorithms (random_choice(left, right) and
// random[1, m]) have one outcome per possible result.
//
// Apply mutates a world: it receives the world and philosopher the outcome
// set was computed for plus the outcome's Arg. Keeping Apply a plain function
// of (world, philosopher, arg) — rather than a closure over them — lets
// programs build outcome sets without allocating: the function values are
// static, and the variable part of the action travels in Arg. The model
// checker exploits the same shape to apply an outcome to a *clone* of the
// world it was computed from (the outcome sets of equal protocol states are
// identical, so outcome i of the recomputed set is outcome i of the
// original).
//
// An outcome must be applied at most once, and only to a world whose protocol
// state equals the one it was computed from.
type Outcome struct {
	// Prob is the probability of this outcome. The probabilities of the
	// outcomes returned together must sum to 1 (within rounding).
	Prob float64
	// Label is a short human-readable description ("commit left", "nr:=3").
	Label string
	// Arg carries the outcome-specific datum passed to Apply (a fork ID, a
	// drawn nr value, a program counter, an option bit mask — whatever the
	// program encoded).
	Arg int64
	// Apply performs the action on w for philosopher p. Call it through Do so
	// that Arg is threaded correctly.
	Apply func(w *World, p graph.PhilID, arg int64)
}

// Do applies the outcome to world w for philosopher p, threading Arg.
func (o *Outcome) Do(w *World, p graph.PhilID) { o.Apply(w, p, o.Arg) }

// Program is a philosopher algorithm: the paper's Tables 1–4 and the baseline
// solutions of the introduction. The same program is run by every philosopher
// (the symmetry condition); all per-philosopher state lives in the World.
//
// Steps are local. Computing and applying an outcome of philosopher p may
// read and write only p's own PhilState, p's two forks, those forks'
// request-list, guest-book and pending-grant slots (of every adjacent
// philosopher), and World.Globals. Two steps of philosophers that share no
// fork therefore commute unless both touch the globals, which is what lets
// the goroutine runtime (internal/runtime) execute a program under per-fork
// locks, with one global lock for programs that size Globals in Init.
type Program interface {
	// Name returns the algorithm name ("LR1", "GDP2", ...).
	Name() string
	// Init prepares algorithm-specific initial state on a fresh World (for
	// example the shared ticket counter of the ticket-box baseline). Most
	// algorithms need nothing beyond NewWorld's defaults.
	Init(w *World)
	// Outcomes appends the possible next atomic actions of philosopher p in
	// world w to buf and returns the extended buffer (pass nil, or a scratch
	// buffer truncated to length 0, exactly as with append). It must produce
	// at least one outcome: a philosopher that cannot progress (busy waiting)
	// gets an outcome that re-performs the failed test. Outcomes must not
	// mutate w; only applying one of them may. Equal protocol states must
	// produce identical outcome sets.
	Outcomes(w *World, p graph.PhilID, buf []Outcome) []Outcome
	// Symmetric reports whether the algorithm satisfies the paper's symmetry
	// and full-distribution conditions (identical code, no shared state other
	// than the forks, no central control). The baselines of the introduction
	// return false.
	Symmetric() bool
}

// SideSymmetricProgram is an optional extension of Program for algorithms
// whose code is additionally invariant under swapping every philosopher's
// left and right fork — the gate for quotienting by orientation-reversing
// topology automorphisms (ring reflections). An unbiased coin flip between
// left and right is side-symmetric; a biased one, or a deterministic
// tie-break toward one side (GDP1's "prefer left on equal NR", Naive's
// left-first order), is not. Programs that do not implement the interface
// are conservatively treated as side-asymmetric.
type SideSymmetricProgram interface {
	Program
	// SideSymmetric reports whether the program's behaviour is invariant
	// under the left/right swap in its current configuration.
	SideSymmetric() bool
}

// applyBecomeHungry performs the "become hungry" bookkeeping and jumps to the
// program counter in arg.
func applyBecomeHungry(w *World, p graph.PhilID, arg int64) {
	w.BecomeHungry(p)
	w.Phils[p].PC = uint8(arg)
}

// ThinkOutcomes is a helper for programs: it appends the outcome set of a
// scheduled thinking philosopher to buf. The workload is saturated — the
// paper's progress and lockout analyses assume that thinking ends as soon as
// the philosopher is scheduled — so the set is the single outcome "become
// hungry" with probability 1: the standard bookkeeping runs and the program
// counter is set to hungryPC (the first line of the trying section).
func ThinkOutcomes(w *World, p graph.PhilID, buf []Outcome, hungryPC uint8) []Outcome {
	return append(buf, Outcome{Prob: 1, Label: "become hungry", Arg: int64(hungryPC), Apply: applyBecomeHungry})
}

// SampleOutcome selects one of the outcomes according to their probabilities
// using rng and returns a pointer into the slice. It panics if outcomes is
// empty. It consumes at most one random draw and allocates nothing.
func SampleOutcome(outcomes []Outcome, rng *prng.Source) *Outcome {
	switch len(outcomes) {
	case 0:
		panic("sim: empty outcome set")
	case 1:
		return &outcomes[0]
	}
	// A weighted draw, pinned by seeded runs: negative probabilities count
	// as zero, and floating-point slack falls back to the last
	// positive-probability outcome.
	total := 0.0
	for i := range outcomes {
		if outcomes[i].Prob > 0 {
			total += outcomes[i].Prob
		}
	}
	if total <= 0 {
		panic("sim: outcome probabilities sum to zero")
	}
	target := rng.Float64() * total
	acc := 0.0
	for i := range outcomes {
		if outcomes[i].Prob <= 0 {
			continue
		}
		acc += outcomes[i].Prob
		if target < acc {
			return &outcomes[i]
		}
	}
	for i := len(outcomes) - 1; i >= 0; i-- {
		if outcomes[i].Prob > 0 {
			return &outcomes[i]
		}
	}
	return &outcomes[len(outcomes)-1]
}

// ValidateOutcomes checks that an outcome set is well formed: non-empty, all
// probabilities positive, summing to 1 within tolerance. Used by tests and by
// the engine in debug mode.
func ValidateOutcomes(outcomes []Outcome) error {
	if len(outcomes) == 0 {
		return fmt.Errorf("sim: empty outcome set")
	}
	sum := 0.0
	for i := range outcomes {
		o := &outcomes[i]
		if o.Prob <= 0 {
			return fmt.Errorf("sim: outcome %d (%q) has non-positive probability %v", i, o.Label, o.Prob)
		}
		if o.Apply == nil {
			return fmt.Errorf("sim: outcome %d (%q) has nil Apply", i, o.Label)
		}
		sum += o.Prob
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("sim: outcome probabilities sum to %v, want 1", sum)
	}
	return nil
}
