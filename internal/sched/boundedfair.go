package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// BoundedFair turns an Advisor into a scheduler that is fair by construction
// with a fixed bound: every philosopher is scheduled at least once every
// Window steps (so in an infinite run every philosopher is scheduled
// infinitely often, which is the paper's fairness requirement). Within the
// bound, the advisor is free to schedule whoever it wants.
//
// BoundedFair is the finite-horizon counterpart of the paper's growing
// "stubbornness level" construction (see Stubborn): for empirical runs a
// fixed window is the honest choice, because a window that grows without
// bound is indistinguishable from an unfair scheduler within any finite
// experiment.
type BoundedFair struct {
	// Advisor is the wrapped strategy.
	Advisor Advisor
	// Window is the fairness bound in steps (minimum 2·number of
	// philosophers is recommended). Zero means DefaultBoundedWindow.
	Window int64

	lastSched []int64
	step      int64
}

// DefaultBoundedWindow is the window used when none is configured.
const DefaultBoundedWindow = 512

// NewBoundedFair wraps advisor with the given fairness window.
func NewBoundedFair(advisor Advisor, window int64) *BoundedFair {
	return &BoundedFair{Advisor: advisor, Window: window}
}

// Name implements sim.Scheduler.
func (s *BoundedFair) Name() string {
	return fmt.Sprintf("bounded-fair(%s,w=%d)", s.Advisor.Name(), s.window())
}

func (s *BoundedFair) window() int64 {
	if s.Window > 0 {
		return s.Window
	}
	return DefaultBoundedWindow
}

// Next implements sim.Scheduler.
func (s *BoundedFair) Next(w *sim.World) graph.PhilID {
	n := len(w.Phils)
	if len(s.lastSched) != n {
		// First step after construction or Reset (which truncates the table,
		// keeping its capacity for reuse across pooled trials).
		s.lastSched = resizeGaps(s.lastSched, n)
	}

	// Fairness: schedule the philosopher with the largest gap if it has
	// reached the window.
	forcedPhil := forced(s.lastSched, s.step, s.window())

	var choice graph.PhilID
	if forcedPhil != graph.NoPhil {
		choice = forcedPhil
	} else {
		choice = s.Advisor.Advise(w)
		if int(choice) < 0 || int(choice) >= n {
			choice = 0
		}
	}
	s.lastSched[choice] = s.step
	s.step++
	return choice
}

// Reset implements sim.ResettableScheduler. The wrapped Advisor needs no
// reset: every advisor in this package recomputes its analysis from the
// world each step and keeps only value-neutral scratch buffers.
func (s *BoundedFair) Reset() {
	s.lastSched = s.lastSched[:0]
	s.step = 0
}
