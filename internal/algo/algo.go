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
	"slices"

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
	// M is the upper bound of the random fork numbers drawn by GDP1/GDP2
	// (the paper requires m >= k, the number of forks). Zero means "use the
	// number of forks of the topology".
	M int
	// CourtesyOnBothForks extends the Cond(fork) test of LR2 and GDP2 to the
	// second fork as well (the paper's Tables 2 and 4 check it only when
	// taking the first fork). The model checker shows that with the
	// first-fork-only reading a fair adversary can still lock an individual
	// philosopher out of GDP2 on the classic ring by always acquiring the
	// shared fork second; checking the condition on both forks removes that
	// trap. See experiment E-T4 of the suite (dpbench -experiment E-T4).
	CourtesyOnBothForks bool
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

// builtins maps each algorithm of this package to its table's lines, nil
// for a baseline. Canonical derives from them which options an algorithm
// reads.
var builtins = map[string][]line{}

// Canonical returns the options the named algorithm reads on topo, every
// other field zero, so that every spelling of one program has one form. A
// table reads M only on a renumber line, and only where it raises the
// number range above its default, the fork count; it reads
// CourtesyOnBothForks only when it keeps request lists. A baseline reads no
// option. An algorithm registered from outside this package keeps opts as
// given.
func Canonical(name string, opts Options, topo *graph.Topology) Options {
	lines, ok := builtins[name]
	if !ok {
		return opts
	}
	var c Options
	if slices.Contains(lines, renumber) && opts.nrRange(topo) != c.nrRange(topo) {
		c.M = opts.M
	}
	if courteous(lines) {
		c.CourtesyOnBothForks = opts.CourtesyOnBothForks
	}
	return c
}

func init() {
	table := func(name string, lines []line) {
		Register(name, func(o Options) sim.Program { return newTable(name, lines, o) })
		builtins[name] = lines
	}
	baseline := func(name string, ctor func() sim.Program) {
		Register(name, func(Options) sim.Program { return ctor() })
		builtins[name] = nil
	}
	table("LR1", lr1)
	table("LR2", lr2)
	table("GDP1", gdp1)
	table("GDP2", gdp2)
	baseline("ordered-forks", func() sim.Program { return NewOrderedForks() })
	baseline("colored", func() sim.Program { return NewColored() })
	baseline("naive-left-first", func() sim.Program { return NewNaive() })
	baseline("central-monitor", func() sim.Program { return NewCentralMonitor() })
	baseline("ticket-box", func() sim.Program { return NewTicketBox() })
}
