package sched

import (
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Config carries everything a scheduler constructor may need. Schedulers are
// stateful (they remember scheduling history), so a fresh one must be
// constructed per run; the registry therefore stores constructors, not
// instances.
type Config struct {
	// RNG drives randomized schedulers. Always non-nil when the registry is
	// used through the public engine.
	RNG *prng.Source
	// Protected restricts an adversary's target set (nil = starve everyone).
	Protected []graph.PhilID
	// FairnessWindow is the bounded-fair adversary's window (0 = default).
	FairnessWindow int64
}

// Ctor constructs a scheduler from a Config.
type Ctor func(cfg Config) sim.Scheduler

// The scheduler registry maps names to constructors. The six schedulers and
// adversaries of this package self-register in init below; external
// strategies plug in through Register (typically via the public facade's
// RegisterScheduler).
var reg = registry.New[Ctor]("sched", "scheduler")

// Register registers a named scheduler constructor. It panics if the name is
// empty, the constructor is nil, or the name is already registered:
// registration happens at init time, where a collision is a programming bug
// that must not be silently resolved by load order.
func Register(name string, ctor Ctor) { reg.Register(name, ctor) }

// New constructs the named registered scheduler, or returns an error listing
// the registered names.
func New(name string, cfg Config) (sim.Scheduler, error) {
	ctor, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	return ctor(cfg), nil
}

// Names returns the registered scheduler names in sorted order.
func Names() []string { return reg.Names() }

func init() {
	Register("round-robin", func(Config) sim.Scheduler { return NewRoundRobin() })
	Register("random", func(cfg Config) sim.Scheduler { return NewUniformRandom(cfg.RNG) })
	Register("sticky", func(Config) sim.Scheduler { return NewSticky(4) })
	Register("hungry-first", func(cfg Config) sim.Scheduler { return NewHungryFirst(cfg.RNG) })
	Register("adversary", func(cfg Config) sim.Scheduler {
		return NewBoundedFair(NewGreedyLivelock(cfg.Protected...), cfg.FairnessWindow)
	})
	Register("stubborn-adversary", func(cfg Config) sim.Scheduler {
		return NewStubborn(NewGreedyLivelock(cfg.Protected...))
	})
}
