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
// The four tables are one skeleton with two switches: GDP1 replaces LR1's
// coin with fork numbers, and LR2 and GDP2 add request lists and guest books
// to LR1 and GDP1. So each paper algorithm is the list of its table's lines
// (tables.go), run by one step machine, and a philosopher's program counter
// (PhilState.PC) is the line number of the pseudo-code it executes next. A
// variant of the paper's algorithms is one more table. Each atomic action of
// the pseudo-code is one sim.Outcome, so an adversarial scheduler can
// interleave the philosophers at exactly the granularity assumed by the
// paper. The baselines number their steps the same way and share the
// machine's eat and release steps.
package algo

import (
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/sim"
)

// one appends a single deterministic action with probability 1. Outcome sets
// are appended to a caller-provided scratch buffer and built from static
// Apply functions plus an Arg, so that a steady-state simulation step
// performs no heap allocations (see sim.Outcome).
func one(buf []sim.Outcome, label string, arg int64, apply func(*sim.World, graph.PhilID, int64)) []sim.Outcome {
	return append(buf, sim.Outcome{Prob: 1, Label: label, Arg: arg, Apply: apply})
}

// Options configures the tunable parameters of the paper's algorithms; the
// baselines have none.
type Options struct {
	// LeftBias is the probability that random_choice(left, right) returns the
	// left fork (LR1, LR2). Zero means the fair coin, 0.5. dining.New rejects
	// NaN and every value outside [0, 1); New accepts them and flips the fair
	// coin for every value outside (0, 1), NaN included.
	LeftBias float64
	// M is the upper bound of the random fork numbers drawn by GDP1/GDP2
	// (the paper requires m >= k, the number of forks). Zero means "use the
	// number of forks of the topology".
	M int
	// DisableCourtesy turns off the Cond(fork) test in GDP2, reducing it to
	// GDP1 plus bookkeeping; used by ablation benchmarks. LR2 ignores it.
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

// leftBias returns the configured or default probability of picking left.
func (o Options) leftBias() float64 {
	if !(o.LeftBias > 0 && o.LeftBias < 1) { // NaN fails both comparisons
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
	Register("LR1", func(o Options) sim.Program { return newTable("LR1", lr1, o) })
	Register("LR2", func(o Options) sim.Program {
		o.DisableCourtesy = false // GDP2's ablation switch
		return newTable("LR2", lr2, o)
	})
	Register("GDP1", func(o Options) sim.Program { return newTable("GDP1", gdp1, o) })
	Register("GDP2", func(o Options) sim.Program { return newTable("GDP2", gdp2, o) })
	Register("ordered-forks", func(Options) sim.Program { return NewOrderedForks() })
	Register("colored", func(Options) sim.Program { return NewColored() })
	Register("naive-left-first", func(Options) sim.Program { return NewNaive() })
	Register("central-monitor", func(Options) sim.Program { return NewCentralMonitor() })
	Register("ticket-box", func(Options) sim.Program { return NewTicketBox() })
}
