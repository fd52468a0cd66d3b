package dining

import (
	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sched"
)

// This file is the public face of the open registries (topologies,
// algorithms, schedulers, fault models; properties register in property.go).
// The built-in implementations self-register in their internal packages;
// external code extends the system here. Registration is init-time wiring:
// every Register function panics on an empty name, a nil constructor or a
// duplicate name, because a collision is a programming bug that must not be
// resolved silently by load order.

// AlgorithmCtor constructs a fresh algorithm program from options. Programs
// must be stateless between runs — all run state lives in the simulation
// world.
type AlgorithmCtor = algo.Ctor

// SchedulerCtor constructs a fresh scheduler for one run from a
// SchedulerConfig. Schedulers are stateful, so the registry stores
// constructors, not instances.
type SchedulerCtor = sched.Ctor

// TopologyCtor builds a topology from a size parameter n; it must substitute
// a sensible default when n <= 0 (fixed topologies ignore n).
type TopologyCtor = graph.TopologyCtor

// FaultConfig parameterizes a fault-model instance: the model's rates (with
// documented defaults for missing ones) and an optional target-philosopher
// restriction.
type FaultConfig = fault.Config

// FaultModel is one configured fault model: a named, parameterized
// transformer of the transition system. See internal/fault for the built-ins
// (crash-rejoin, delayed-grants, freeze, lossy-grants) and the
// Program-wrapping semantics.
type FaultModel = fault.Model

// FaultCtor constructs a fault-model instance from a FaultConfig, validating
// the rates eagerly.
type FaultCtor = fault.Ctor

// RegisterAlgorithm registers a named algorithm. The name becomes valid
// everywhere an algorithm name is accepted: New, Sweep, the experiment suite
// and the -algorithm flag of the CLI tools.
func RegisterAlgorithm(name string, ctor AlgorithmCtor) { algo.Register(name, ctor) }

// RegisterScheduler registers a named scheduler or adversary. The name
// becomes valid everywhere a scheduler name is accepted: WithScheduler,
// Sweep and the -scheduler flag of the CLI tools.
func RegisterScheduler(name string, ctor SchedulerCtor) { sched.Register(name, ctor) }

// RegisterTopology registers a named topology constructor, available to
// NewTopology, Sweep and the -topology flag of the CLI tools.
func RegisterTopology(name string, ctor TopologyCtor) { graph.RegisterTopology(name, ctor) }

// RegisterFault registers a named fault model — the fifth registry axis. The
// name becomes valid everywhere a fault spec is accepted: WithFaults, the
// Faults axis of Sweep and the -faults flag of the CLI tools.
func RegisterFault(name string, ctor FaultCtor) { fault.Register(name, ctor) }

// Algorithms returns every registered algorithm name in sorted order.
func Algorithms() []string { return algo.Names() }

// Schedulers returns every registered scheduler name in sorted order.
func Schedulers() []string { return sched.Names() }

// Topologies returns every registered topology name in sorted order.
func Topologies() []string { return graph.TopologyNames() }

// Faults returns every registered fault-model name in sorted order.
func Faults() []string { return fault.Names() }

// LookupFault returns the named registered fault-model constructor. Unknown
// names produce a one-line error listing the registered options.
func LookupFault(name string) (FaultCtor, error) { return fault.Lookup(name) }

// NewFault constructs the named registered fault model, validating the
// configuration's rates and targets eagerly. It is mainly useful for feeding
// fault models into the lower-level internal engines; engine users configure
// faults with WithFaults.
func NewFault(name string, cfg FaultConfig) (FaultModel, error) { return fault.New(name, cfg) }

// NewFaultFromSpec constructs a fault model from a spec string in the
// internal/fault grammar, name[:rates][@philosophers] — the same strings
// WithFaults, the Sweep fault axis and the -faults CLI flag accept.
func NewFaultFromSpec(spec string) (FaultModel, error) { return fault.NewFromSpec(spec) }

// NewTopology builds the named registered topology with size parameter n
// (n = 0 selects the constructor's default size; fixed topologies ignore n;
// a negative n is an error). Unknown names produce a one-line error listing
// the registered options.
func NewTopology(name string, n int) (*Topology, error) { return graph.NewTopology(name, n) }

// NewAlgorithm constructs the named registered algorithm, mainly useful for
// feeding custom programs into the lower-level internal engines from tests.
// Unknown names produce a one-line error listing the registered options.
func NewAlgorithm(name string, opts AlgorithmOptions) (Program, error) { return algo.New(name, opts) }

// NewScheduler constructs the named registered scheduler. Unknown names
// produce a one-line error listing the registered options.
func NewScheduler(name string, cfg SchedulerConfig) (Scheduler, error) { return sched.New(name, cfg) }
