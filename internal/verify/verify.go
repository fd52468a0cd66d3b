// Package verify is the Monte-Carlo side of the reproduction, for instances
// too large to explore exhaustively. Trials is the one trial harness: every
// Monte-Carlo trial outside dining's single Engine.Run — Engine.Trials, the
// statistical progress and lockout properties (Theorems 3 and 4) and the
// sampled rows of the experiment suite — runs on its warm-started pool. The
// package also holds the paper's probability lower bounds: the one used in
// the proof of Theorem 3 and the Section 3 scheduler's success bound.
package verify

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/prng"
	"repro/internal/sim"
)

// SchedulerFactory constructs a fresh scheduler for each trial (schedulers
// carry state, so they cannot be shared across trials).
type SchedulerFactory func(rng *prng.Source) sim.Scheduler

// trialSlot is the per-worker working set of one Monte-Carlo trial: the
// recycled world, the recycled run summary, and the recycled run-level
// bookkeeping (trial RNG, scheduler RNG, scheduler). Keeping the Result in
// the slot lets trials run through sim.RunWorldInto, which reuses the
// summary's metric slices (EatsBy, FirstEatBy, ScheduledCount, Starved) and
// scratch arrays in place instead of copying them per trial; keeping the
// RNGs as values and the scheduler instance lets prepare reseed and reset
// them in place instead of re-deriving all three per trial.
type trialSlot struct {
	w   *sim.World
	res sim.Result

	rng      prng.Source
	schedRNG prng.Source
	sched    sim.Scheduler
}

// prepare rewinds the slot's run-level state for the trial with the given
// seed, bit-identically to the unpooled derivation
//
//	rng := prng.New(seed)
//	sched := factory(rng.Split())
//
// The trial RNG is reseeded in place; the scheduler RNG is re-derived with
// SplitTo (same stream advance and same resulting state as Split); and the
// scheduler is Reset when it supports it — its captured *prng.Source pointer
// sees the reseeded stream — or reconstructed through the factory otherwise.
func (s *trialSlot) prepare(factory SchedulerFactory, seed uint64) (*prng.Source, sim.Scheduler) {
	s.rng.Reseed(seed)
	s.rng.SplitTo(&s.schedRNG)
	if rs, ok := s.sched.(sim.ResettableScheduler); ok {
		rs.Reset()
	} else {
		s.sched = factory(&s.schedRNG)
	}
	return &s.rng, s.sched
}

// trialPool warm-starts Monte-Carlo trials: the initial world is built (and
// the program initialized on it) exactly once, and every trial clones the
// prototype's protocol state into a recycled per-worker world via
// CloneProtocolInto instead of rebuilding phil/fork/slot arrays from the
// topology. The prototype is read-only after construction, so concurrent
// trial workers share it safely; the recycled world/Result slots cycle
// through a sync.Pool, so a steady-state trial allocates neither world state
// nor summary slices (pinned by TestTrialWarmStartAllocs).
type trialPool struct {
	proto *sim.World
	pool  sync.Pool
}

// newTrialPool builds the shared prototype for topo/prog.
func newTrialPool(topo *graph.Topology, prog sim.Program) *trialPool {
	proto := sim.NewWorld(topo)
	prog.Init(proto)
	return &trialPool{proto: proto}
}

// get returns a slot whose world is in the exact state a fresh NewWorld+Init
// would produce, recycling a pooled slot when one is available. The slot's
// Result holds whatever the previous trial left; RunWorldInto overwrites
// every field.
func (tp *trialPool) get() *trialSlot {
	s, _ := tp.pool.Get().(*trialSlot)
	if s == nil {
		s = &trialSlot{}
	}
	s.w = tp.proto.CloneProtocolInto(s.w)
	s.w.ResetMetrics()
	return s
}

// put recycles a trial's slot for the next get. The Result's Final aliases
// the pooled world; sever it so no retained Result ever observes a world
// another trial is overwriting.
func (tp *trialPool) put(s *trialSlot) {
	s.res.Final = nil
	tp.pool.Put(s)
}

// Batch is one batch of Monte-Carlo trials: trial i runs Program on
// Topology from its initial world under a scheduler built by Scheduler, with
// Options, and derives all of its randomness from Seed(i). Each trial is
// bit-identical to the fresh-world run
//
//	rng := prng.New(b.Seed(i))
//	res, err := sim.Run(b.Topology, b.Program, b.Scheduler(rng.Split()), rng, b.Options)
//
// but starts from a recycled world, Result and scheduler (see trialPool).
// Program is shared by every worker, so it must be safe for concurrent use,
// as the registered algorithms and fault wrappers are.
type Batch struct {
	Topology  *graph.Topology
	Program   sim.Program
	Scheduler SchedulerFactory
	// Options configures every trial's run; Trials sets Options.Stop from
	// its context.
	Options sim.RunOptions
	// Seed derives the seed of trial i.
	Seed func(i int) uint64
	// Workers bounds the trial goroutines (0 = one per CPU, 1 = sequential);
	// the value yielded for a trial is identical for every value.
	Workers int
}

// Trials streams n trials of b across b.Workers goroutines in completion
// order (see par.Stream): it runs each trial on a pooled slot and yields
// fold's value for it. fold receives the trial's index, its seed and its
// recycled Result, whose slices and Final world the worker's next trial
// overwrites, so fold must copy whatever it keeps. A trial cut short by
// cancelling ctx yields ctx's error.
func Trials[T any](ctx context.Context, b Batch, n int, fold func(i int, seed uint64, res *sim.Result) T) iter.Seq[par.Streamed[T]] {
	opts := b.Options
	opts.Stop = nil
	if ctx != nil && ctx.Done() != nil {
		opts.Stop = func() bool { return ctx.Err() != nil }
	}
	worlds := newTrialPool(b.Topology, b.Program)
	return par.Stream(ctx, b.Workers, n, func(i int) (T, error) {
		var zero T
		s := worlds.get()
		defer worlds.put(s)
		seed := b.Seed(i)
		rng, sched := s.prepare(b.Scheduler, seed)
		if err := sim.RunWorldInto(&s.res, s.w, b.Program, sched, rng, opts); err != nil {
			return zero, fmt.Errorf("verify: trial %d: %w", i, err)
		}
		if s.res.Reason == sim.StopCancelled {
			return zero, ctx.Err()
		}
		return fold(i, seed, &s.res), nil
	})
}

// Collect runs Trials to completion and returns fold's values in
// trial-index order, so that any aggregate folded over them in order is
// bit-identical for every worker count. It stops at the first error the
// stream yields.
func Collect[T any](ctx context.Context, b Batch, n int, fold func(i int, seed uint64, res *sim.Result) T) ([]T, error) {
	out := make([]T, max(n, 0))
	for s := range Trials(ctx, b, n, fold) {
		if s.Err != nil {
			return nil, s.Err
		}
		out[s.Index] = s.Value
	}
	return out, nil
}

// DistinctNumberBound returns the lower bound used in the proof of Theorem 3:
// the probability that k independent uniform draws from [1, m] are pairwise
// distinct, m!/(m^k (m−k)!). It panics if k > m (the paper requires m >= k).
func DistinctNumberBound(m, k int) float64 {
	if k > m {
		panic(fmt.Sprintf("verify: DistinctNumberBound requires k <= m, got k=%d m=%d", k, m))
	}
	if k <= 1 {
		return 1
	}
	p := 1.0
	for i := 0; i < k; i++ {
		p *= float64(m-i) / float64(m)
	}
	return p
}

// Section3Bound returns the paper's lower bound for the probability that the
// fair approximation of the Section 3 scheduler succeeds forever:
// 1/4 · Π_{k≥1}(1 − p^k) ≥ 1/4 · (1 − p − p²), which is at least 1/16 for
// p ≤ 1/2.
func Section3Bound(p float64) float64 {
	if p < 0 || p >= 1 {
		return 0
	}
	return 0.25 * (1 - p - p*p)
}
