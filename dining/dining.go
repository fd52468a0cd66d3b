// Package dining is the public facade of the repository: a streaming
// experiment engine for the generalized dining-philosophers systems of
// Herescu & Palamidessi (PODC 2001).
//
// The v4 API has six parts:
//
// # Registries
//
// Topologies, algorithms, schedulers, properties and fault models are open,
// name-indexed registries. The nine built-in algorithms, the six built-in
// schedulers/adversaries, every builder topology, the built-in properties
// and the three built-in fault models self-register at init time; new
// implementations plug in with [RegisterAlgorithm], [RegisterScheduler],
// [RegisterTopology], [RegisterProperty] and [RegisterFault] and immediately
// become available to every consumer — the engine, the sweep matrix, the
// experiment suite and the command-line tools. [Algorithms], [Schedulers],
// [Topologies], [Properties] and [Faults] enumerate the registered names in
// sorted order.
//
// # Engine
//
// [New] assembles an immutable [Engine] from a topology, an algorithm name
// and functional options:
//
//	topo, _ := dining.NewTopology("ring", 5)
//	eng, err := dining.New(topo, dining.GDP2,
//		dining.WithScheduler(dining.Adversary),
//		dining.WithSeed(42),
//		dining.WithWorkers(8),
//		dining.WithMaxSteps(100_000))
//
// Every run path takes a [context.Context] and honours cancellation:
// [Engine.Run] executes one simulation from a fresh world and returns the
// final world with it, [Engine.Trials] streams n deterministic Monte-Carlo
// trials, [Engine.Check] verifies properties, [Engine.Explore] returns the
// explored state space, and [Engine.RunConcurrent] executes the same program
// on real goroutines. The engine is the only code that turns a configuration
// into a program, a scheduler and a run: the experiment suite
// ([Experiments], [RunAll]) builds one engine per table row. Every
// Monte-Carlo trial other than Run's — Trials, the statistical properties and
// the suite's sampled rows — runs on one warm-started harness, which clones a
// prototype world and recycles each worker's world, run summary and
// scheduler between trials.
//
// # Properties
//
// The paper's claims are first-class checks. [Engine.Check] resolves
// property names against the registry, explores the state space once — a
// parallel breadth-first search over hash-sharded state stores whose result
// is byte-identical for every [WithWorkers] and [WithShards] value — and
// streams one [PropertyResult] per property:
//
//	eng, _ := dining.New(dining.Theorem2Minimal(), dining.LR2)
//	for res, err := range eng.Check(ctx, dining.StarvationTrap, dining.Progress) {
//		...
//	}
//
// The four exhaustive built-ins ([DeadlockFreedom], [Progress],
// [LockoutFreedom], [StarvationTrap]) are checked on the explored space and
// attach a replayable counterexample [Trace] to every failure — the exact
// scheduler-choice path into the violating region, verifiable with
// [Engine.ReplayTrace]; the statistical built-ins ([StatisticalProgress],
// [StatisticalLockout]) sample runs on the trial harness for instances too
// large to explore. Custom properties implement [Property] (or wrap a function in
// [PropertyFunc]) and register with [RegisterProperty].
//
// # Faults
//
// [WithFaults] injects a registered fault model into the engine's
// transition system — crash-rejoin (crash, drop forks, later rejoin),
// freeze (permanent crash) or lossy-grants (a hungry philosopher's acquire
// step probabilistically no-ops):
//
//	eng, _ := dining.New(dining.Ring(5), dining.GDP2,
//		dining.WithFaults("crash-rejoin", 0.05, 0.5))
//
// The model wraps the algorithm's program, so the simulator and the model
// checker see the same perturbed MDP; [WithFaultTargets] restricts the
// faults to named philosophers, the recoverable properties
// ([ProgressUnderFaults], [LockoutFreedomUnderFaults]) check the paper's
// guarantees on the perturbed space exhaustively, fault branches appear as
// "fault: "-labelled steps in counterexample traces, and the [Sweep] Faults
// axis crosses fault specs into the scenario matrix. Without [WithFaults]
// the engine is byte-identical to one without the fault layer. Custom
// models register with [RegisterFault].
//
// # Symmetry
//
// [WithSymmetry] quotients exhaustive exploration by the topology's
// automorphism group: states are interned under their orbit-canonical key
// (the lexicographically minimal image over the group), so a ring-n instance
// stores roughly a 1/(2n)-th of the concrete states while every verdict —
// and every counterexample trace, lifted back to concrete scheduler steps —
// is identical to the unreduced exploration:
//
//	eng, _ := dining.New(dining.Ring(5), dining.LR1, dining.WithSymmetry())
//
// The reduction is gated for soundness, falling back to the unreduced
// exploration whenever it could change a verdict: algorithms that break
// philosopher symmetry (GDP1/GDP2's fork numbering, the naive left-first
// tie-break) and targeted faults disable the quotient entirely; reflections
// are used only for algorithms invariant under the left/right swap (LR1,
// LR2); protected sets restrict the group to their setwise stabilizer; and
// lockout-freedom's per-philosopher labellings are checked on an unreduced
// twin exploration. State counts in [PropertyResult] are then per-orbit;
// simulation and trial surfaces are never affected. [Engine.Symmetry]
// reports the engine's setting, which also enters [Engine.Fingerprint].
//
// # Streams
//
// [Engine.Trials] yields per-trial results as workers finish — an
// [iter.Seq2] stream in completion order whose per-index payloads are
// nevertheless bit-identical for any worker count (each trial derives all
// randomness from its index). [Sweep] crosses topology × algorithm ×
// scheduler × fault grids into a streamed scenario matrix with the same
// determinism guarantee; [Engine.Check] streams property verdicts the same
// way.
//
// See the examples directory for complete programs and cmd/dpsim, dpbench,
// dpcheck, dpadversary for the command-line tools.
package dining

import (
	"context"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Topology is a generalized dining-philosopher system: forks are nodes,
// philosophers are arcs of a multigraph, and every philosopher uses exactly
// two distinct forks.
type Topology = graph.Topology

// PhilID identifies a philosopher.
type PhilID = graph.PhilID

// ForkID identifies a fork.
type ForkID = graph.ForkID

// Topology constructors (see package graph for the full set). Each of these
// is also available by name through the topology registry.
var (
	// Ring is the classic table of n philosophers and n forks.
	Ring = graph.Ring
	// DoubledPolygon is a cycle of k forks with two philosophers per edge;
	// DoubledPolygon(3) is the paper's 6-philosopher / 3-fork example.
	DoubledPolygon = graph.DoubledPolygon
	// RingWithChord adds one philosopher across a ring (Theorem 1 family).
	RingWithChord = graph.RingWithChord
	// RingWithPendant adds one philosopher from a ring fork to a private fork.
	RingWithPendant = graph.RingWithPendant
	// Theta joins two forks by three or more disjoint paths (Theorem 2 family).
	Theta = graph.Theta
	// Theorem1Minimal and Theorem2Minimal are the smallest instances the
	// model checker uses for Theorems 1 and 2.
	Theorem1Minimal = graph.Theorem1Minimal
	Theorem2Minimal = graph.Theorem2Minimal
	// Star, Path, Grid, CompleteForkGraph and RandomMultigraph build further
	// synthetic topologies.
	Star              = graph.Star
	Path              = graph.Path
	Grid              = graph.Grid
	CompleteForkGraph = graph.CompleteForkGraph
	RandomMultigraph  = graph.RandomMultigraph
	// Figure1A..Figure1D are the four example systems of the paper's Figure 1.
	Figure1A = graph.Figure1A
	Figure1B = graph.Figure1B
	Figure1C = graph.Figure1C
	Figure1D = graph.Figure1D
	// NewTopologyBuilder builds arbitrary custom topologies.
	NewTopologyBuilder = graph.NewBuilder
)

// Names of the built-in algorithms (see the algorithm registry).
const (
	// LR1 is Lehmann & Rabin's free-choice algorithm (Table 1).
	LR1 = "LR1"
	// LR2 is the courteous Lehmann & Rabin algorithm with request lists and
	// guest books (Table 2).
	LR2 = "LR2"
	// GDP1 is the paper's random fork-numbering progress algorithm (Table 3).
	GDP1 = "GDP1"
	// GDP2 is the paper's lockout-free algorithm (Table 4).
	GDP2 = "GDP2"
	// OrderedForks, Colored, CentralMonitor, TicketBox and NaiveLeftFirst are
	// the classical baselines of the paper's introduction.
	OrderedForks   = "ordered-forks"
	Colored        = "colored"
	CentralMonitor = "central-monitor"
	TicketBox      = "ticket-box"
	NaiveLeftFirst = "naive-left-first"
)

// Names of the built-in schedulers (see the scheduler registry).
const (
	// RoundRobin cycles through philosophers.
	RoundRobin = "round-robin"
	// Random picks a uniformly random philosopher each step. It is the
	// engine's default scheduler.
	Random = "random"
	// Sticky schedules bursts per philosopher.
	Sticky = "sticky"
	// HungryFirst prefers philosophers in their trying section.
	HungryFirst = "hungry-first"
	// Adversary is the fair livelock adversary of Section 3 / Theorems 1–2.
	Adversary = "adversary"
	// StubbornAdversary uses the paper's growing-stubbornness construction.
	StubbornAdversary = "stubborn-adversary"
)

// AlgorithmOptions tunes an algorithm (number range m, courtesy variants,
// coin bias).
type AlgorithmOptions = algo.Options

// Program is a philosopher algorithm as a state machine over the simulation
// engine; custom algorithms implement it and register through
// RegisterAlgorithm.
type Program = sim.Program

// Scheduler decides which philosopher executes the next atomic action;
// custom schedulers implement it and register through RegisterScheduler.
type Scheduler = sim.Scheduler

// SchedulerConfig carries what a scheduler constructor may need: the run's
// random source, the protected set and the adversary fairness window.
type SchedulerConfig = sched.Config

// RandSource is the deterministic random source handed to scheduler
// constructors through SchedulerConfig.
type RandSource = prng.Source

// Recorder receives every simulation event; see WithRecorder.
type Recorder = sim.Recorder

// SimResult is the outcome of a simulation run.
type SimResult = sim.Result

// ConcurrentMetrics is the outcome of a goroutine-runtime run.
type ConcurrentMetrics = runtime.Metrics

// Simulate is a convenience wrapper: build an engine from the arguments and
// run one simulation.
func Simulate(ctx context.Context, topo *Topology, algorithm string, opts ...Option) (*SimResult, error) {
	eng, err := New(topo, algorithm, opts...)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

// RunConcurrent is a convenience wrapper around the goroutine runtime: it
// runs the algorithm on real goroutines until every philosopher has eaten
// targetMeals times or the duration expires.
func RunConcurrent(ctx context.Context, topo *Topology, algorithm string, seed uint64, duration time.Duration, targetMeals int64) (*ConcurrentMetrics, error) {
	eng, err := New(topo, algorithm, WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return eng.RunConcurrent(ctx, duration, targetMeals)
}
