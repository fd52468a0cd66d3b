package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Advisor encodes a (possibly unfair) adversarial scheduling strategy: given
// the full state of the system it suggests which philosopher it would like to
// schedule next. Advisors are turned into fair schedulers by the Stubborn
// wrapper.
type Advisor interface {
	// Name identifies the strategy.
	Name() string
	// Advise returns the philosopher the strategy wants to schedule next.
	Advise(w *sim.World) graph.PhilID
}

// Stubborn turns an Advisor into a fair scheduler using the construction of
// Section 3 of the paper: the adversary follows its strategy, but it may
// ignore a given philosopher only for a bounded number of steps (the current
// "level of stubbornness"); whenever the bound forces it to schedule a
// philosopher it did not want to schedule, the bound for subsequent rounds is
// increased, so that the probability that the adversary is never forced again
// remains bounded away from zero while every computation it produces is fair.
type Stubborn struct {
	// Advisor is the wrapped strategy.
	Advisor Advisor
	// InitialWindow is the initial bound on how many consecutive steps a
	// philosopher may be ignored (minimum 1). Zero means DefaultWindow.
	InitialWindow int64
	// Growth is the factor by which the window grows after every forced
	// scheduling; values <= 1 mean DefaultGrowth.
	Growth float64

	window    int64
	lastSched []int64
	step      int64
}

// DefaultWindow is the initial stubbornness bound used when none is given.
const DefaultWindow = 64

// DefaultGrowth is the window growth factor used when none is given.
const DefaultGrowth = 2.0

// NewStubborn wraps advisor in a Stubborn scheduler with default parameters.
func NewStubborn(advisor Advisor) *Stubborn {
	return &Stubborn{Advisor: advisor}
}

// Name implements sim.Scheduler.
func (s *Stubborn) Name() string {
	return fmt.Sprintf("stubborn(%s)", s.Advisor.Name())
}

// Next implements sim.Scheduler.
func (s *Stubborn) Next(w *sim.World) graph.PhilID {
	n := len(w.Phils)
	if len(s.lastSched) != n {
		// First step after construction or Reset (which truncates the table,
		// keeping its capacity for reuse across pooled trials).
		s.lastSched = resizeGaps(s.lastSched, n)
		s.window = s.InitialWindow
		if s.window <= 0 {
			s.window = DefaultWindow
		}
	}
	growth := s.Growth
	if growth <= 1 {
		growth = DefaultGrowth
	}

	// Fairness pressure: if some philosopher has waited at least the current
	// window, schedule the longest-waiting one and grow the window.
	forcedPhil := forced(s.lastSched, s.step, s.window)

	var choice graph.PhilID
	if forcedPhil != graph.NoPhil {
		choice = forcedPhil
		next := int64(float64(s.window) * growth)
		if next <= s.window {
			next = s.window + 1
		}
		s.window = next
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

// Reset implements sim.ResettableScheduler: the next Next call re-derives
// the window from the configuration exactly as a fresh instance would. The
// gap table keeps its capacity.
func (s *Stubborn) Reset() {
	s.lastSched = s.lastSched[:0]
	s.window = 0
	s.step = 0
}

// forced returns the philosopher whose scheduling gap is the largest one at
// or past window (the lowest index on ties), or graph.NoPhil when every gap
// is shorter. lastSched holds each philosopher's last scheduled step, or −1
// before its first, so a never-scheduled philosopher's gap is step+1.
func forced(lastSched []int64, step, window int64) graph.PhilID {
	p := graph.NoPhil
	worst := window - 1
	for q, last := range lastSched {
		if gap := step - last; gap > worst {
			p, worst = graph.PhilID(q), gap
		}
	}
	return p
}

// resizeGaps returns a length-n gap table filled with the "never scheduled"
// sentinel, reusing prior capacity when it suffices.
func resizeGaps(gaps []int64, n int) []int64 {
	if cap(gaps) < n {
		gaps = make([]int64, n)
	} else {
		gaps = gaps[:n]
	}
	for i := range gaps {
		gaps[i] = -1
	}
	return gaps
}
