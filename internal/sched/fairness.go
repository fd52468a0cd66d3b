package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// FairnessMonitor wraps a scheduler and measures how fair it actually is: the
// largest observed gap (in steps) between consecutive schedulings of the same
// philosopher, per philosopher and overall. The paper's adversary
// constructions are required to be fair; wrapping them in a FairnessMonitor
// turns that requirement into an observable reported alongside every
// experiment.
type FairnessMonitor struct {
	inner sim.Scheduler

	step     int64
	lastStep []int64
	maxGap   []int64
}

// NewFairnessMonitor wraps inner.
func NewFairnessMonitor(inner sim.Scheduler) *FairnessMonitor {
	return &FairnessMonitor{inner: inner}
}

// Name implements sim.Scheduler.
func (m *FairnessMonitor) Name() string { return m.inner.Name() + "+fairness" }

// Next implements sim.Scheduler.
func (m *FairnessMonitor) Next(w *sim.World) graph.PhilID {
	if m.lastStep == nil {
		n := len(w.Phils)
		m.lastStep = make([]int64, n)
		m.maxGap = make([]int64, n)
		for i := range m.lastStep {
			m.lastStep[i] = -1
		}
	}
	p := m.inner.Next(w)
	if int(p) >= 0 && int(p) < len(m.lastStep) {
		gap := m.step + 1
		if m.lastStep[p] >= 0 {
			gap = m.step - m.lastStep[p]
		}
		if gap > m.maxGap[p] {
			m.maxGap[p] = gap
		}
		m.lastStep[p] = m.step
	}
	m.step++
	return p
}

// MaxGap returns the largest gap observed for any philosopher, including the
// still-open gap of philosophers not scheduled recently (or ever).
func (m *FairnessMonitor) MaxGap() int64 {
	var max int64
	for p := range m.maxGap {
		g := m.maxGap[p]
		var open int64
		if m.lastStep[p] < 0 {
			open = m.step
		} else {
			open = m.step - m.lastStep[p]
		}
		if open > g {
			g = open
		}
		if g > max {
			max = g
		}
	}
	return max
}

// Report returns a one-line summary.
func (m *FairnessMonitor) Report() string {
	return fmt.Sprintf("%s: %d steps, max scheduling gap %d", m.Name(), m.step, m.MaxGap())
}
