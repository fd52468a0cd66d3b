// Package algo implements the philosopher algorithms studied in the paper as
// programs over the sim engine:
//
//   - LR1  — Lehmann & Rabin's free-choice algorithm (Table 1).
//   - LR2  — Lehmann & Rabin's courteous, lockout-free algorithm generalized
//     with request lists and guest books (Table 2).
//   - GDP1 — the paper's progress algorithm based on random fork numbering
//     (Table 3).
//   - GDP2 — the paper's lockout-free variant (Table 4).
//
// plus the classical non-symmetric / non-distributed baselines sketched in
// the introduction (ordered forks, colored philosophers, central monitor,
// ticket box), which are useful as comparison points in the benchmarks.
//
// Every program is a state machine over the philosopher's program counter
// (PhilState.PC), with PC values matching the line numbers of the paper's
// pseudo-code tables. Each atomic action of the pseudo-code is one sim.Outcome,
// so an adversarial scheduler can interleave the philosophers at exactly the
// granularity assumed by the paper.
package algo

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/sim"
)

// The outcome constructors below append to a caller-provided scratch buffer
// and build outcomes from static Apply functions plus an Arg, so that a
// steady-state simulation step performs no heap allocations (see
// sim.Outcome).

// one appends a single deterministic action with probability 1.
func one(buf []sim.Outcome, label string, arg int64, apply func(*sim.World, graph.PhilID, int64)) []sim.Outcome {
	return append(buf, sim.Outcome{Prob: 1, Label: label, Arg: arg, Apply: apply})
}

// coinFlip appends the two-outcome set of the algorithms' random_choice(left,
// right) draw. pLeft is the probability of choosing the left fork; the paper
// uses 1/2 but notes the negative results do not depend on the value.
func coinFlip(buf []sim.Outcome, pLeft float64, left, right sim.Outcome) []sim.Outcome {
	if pLeft <= 0 {
		right.Prob = 1
		return append(buf, right)
	}
	if pLeft >= 1 {
		left.Prob = 1
		return append(buf, left)
	}
	left.Prob = pLeft
	right.Prob = 1 - pLeft
	return append(buf, left, right)
}

// uniformNR appends the outcome set of the GDP step "fork.nr := random[1, m]":
// one outcome per value in [1, m], each with probability 1/m. apply receives
// the drawn value as arg.
func uniformNR(buf []sim.Outcome, m int, apply func(*sim.World, graph.PhilID, int64)) []sim.Outcome {
	p := 1.0 / float64(m)
	for v := 1; v <= m; v++ {
		buf = append(buf, sim.Outcome{
			Prob:  p,
			Label: nrLabel(v),
			Arg:   int64(v),
			Apply: apply,
		})
	}
	return buf
}

// nrLabels precomputes the labels of the common nr draws so that building the
// uniformNR outcome set allocates nothing; draws beyond the table (m beyond
// 256 forks, only reachable through explicit Options.M or very large
// topologies) fall back to fmt.
var nrLabels = func() [257]string {
	var labels [257]string
	for v := range labels {
		labels[v] = fmt.Sprintf("nr := %d", v)
	}
	return labels
}()

func nrLabel(v int) string {
	if v >= 0 && v < len(nrLabels) {
		return nrLabels[v]
	}
	//dplint:ok hotalloc cold fallback: only reachable for m beyond the 256-entry precomputed label table
	return fmt.Sprintf("nr := %d", v)
}

// applySetPC is the generic "nothing to do but advance" action: it sets the
// philosopher's program counter to arg.
func applySetPC(w *sim.World, p graph.PhilID, arg int64) {
	w.Phils[p].PC = uint8(arg)
}

// Options configures the tunable parameters shared by the algorithms.
type Options struct {
	// LeftBias is the probability that random_choice(left, right) returns the
	// left fork (LR1, LR2). Zero means the default of 0.5.
	LeftBias float64
	// M is the upper bound of the random fork numbers drawn by GDP1/GDP2
	// (the paper requires m >= k, the number of forks). Zero means "use the
	// number of forks of the topology".
	M int
	// DisableCourtesy turns off the Cond(fork) test in GDP2, reducing it to
	// GDP1 plus bookkeeping; used by ablation benchmarks.
	DisableCourtesy bool
	// CourtesyOnBothForks extends the Cond(fork) test of LR2 and GDP2 to the
	// second fork as well (the paper's Tables 2 and 4 check it only when
	// taking the first fork). The model checker shows that with the
	// first-fork-only reading a fair adversary can still lock an individual
	// philosopher out of GDP2 on the classic ring by always acquiring the
	// shared fork second; checking the condition on both forks removes that
	// trap. See experiment E-T4 of the suite (dpbench -experiment E-T4).
	CourtesyOnBothForks bool
}

// Courtesy option bits passed to the static Apply functions through
// Outcome.Arg (the Apply functions are shared across program instances, so
// per-instance options must travel with the outcome).
const (
	flagCourtesyOnBoth int64 = 1 << iota
	flagDisableCourtesy
)

// courtesyFlags encodes the courtesy options as Outcome.Arg bits.
func (o Options) courtesyFlags() int64 {
	var flags int64
	if o.CourtesyOnBothForks {
		flags |= flagCourtesyOnBoth
	}
	if o.DisableCourtesy {
		flags |= flagDisableCourtesy
	}
	return flags
}

// leftBias returns the configured or default probability of picking left.
func (o Options) leftBias() float64 {
	if o.LeftBias <= 0 || o.LeftBias >= 1 {
		return 0.5
	}
	return o.LeftBias
}

// nrRange returns the configured or default value of m for a topology,
// enforcing the paper's requirement m >= k.
func (o Options) nrRange(topo *graph.Topology) int {
	m := o.M
	if m < topo.NumForks() {
		m = topo.NumForks()
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Ctor constructs a fresh program for the given options; programs are
// stateless between runs (all run state lives in the World), so a single
// instance may be reused across runs, but constructing per run is cheapest to
// reason about.
type Ctor func(Options) sim.Program

// The algorithm registry maps names to constructors. The nine implementations
// of this package self-register in init below; external algorithms plug in
// through Register (typically via the public facade's RegisterAlgorithm) and
// become available to every consumer — the CLI tools, the experiment suite
// and the model checker — without touching this package.
var reg = registry.New[Ctor]("algo", "algorithm")

// Register registers a named algorithm constructor. It panics if the name is
// empty, the constructor is nil, or the name is already registered:
// registration happens at init time, where a collision is a programming bug
// that must not be silently resolved by load order.
func Register(name string, ctor Ctor) { reg.Register(name, ctor) }

// New returns the named algorithm configured with opts, or an error listing
// the registered names.
func New(name string, opts Options) (sim.Program, error) {
	ctor, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return ctor(opts), nil
}

// Names returns the registered algorithm names in sorted order.
func Names() []string { return reg.Names() }

func init() {
	Register("LR1", func(o Options) sim.Program { return NewLR1(o) })
	Register("LR2", func(o Options) sim.Program { return NewLR2(o) })
	Register("GDP1", func(o Options) sim.Program { return NewGDP1(o) })
	Register("GDP2", func(o Options) sim.Program { return NewGDP2(o) })
	Register("ordered-forks", func(Options) sim.Program { return NewOrderedForks() })
	Register("colored", func(Options) sim.Program { return NewColored() })
	Register("naive-left-first", func(Options) sim.Program { return NewNaive() })
	Register("central-monitor", func(Options) sim.Program { return NewCentralMonitor() })
	Register("ticket-box", func(Options) sim.Program { return NewTicketBox(0) })
}
