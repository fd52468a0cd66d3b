// Package verify provides machine-checkable formulations of the paper's
// statements that complement the exhaustive model checker on instances too
// large to explore: Monte-Carlo progress and lockout-freedom checks
// (Theorems 3 and 4), and the probability lower bounds of the paper: the one
// used in the proof of Theorem 3 and the Section 3 scheduler's success
// bound.
package verify

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
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

// ProgressCheck is the Monte-Carlo form of a progress statement
// T --(F, p)--> E: starting every trial from the all-thinking initial state
// under a saturated workload, the system must reach a state where some
// philosopher eats.
type ProgressCheck struct {
	Topology  *graph.Topology
	Algorithm sim.Program
	Scheduler SchedulerFactory
	Trials    int
	MaxSteps  int64
	Seed      uint64
	// Workers bounds the trial goroutines (0 = one per CPU, 1 = sequential);
	// the result is identical for every value.
	Workers int
	// Stop is polled by every trial's step loop when non-nil; a true return
	// ends the trial early. It is how context cancellation reaches a running
	// check (the caller should treat a stopped check's result as invalid).
	Stop func() bool
}

// ProgressResult summarises a ProgressCheck.
type ProgressResult struct {
	Proportion stats.Proportion
	// StepsToFirstMeal aggregates the number of steps before the first meal
	// over successful trials.
	StepsToFirstMeal stats.Running
	// Failures lists the seeds of trials with no progress (empty when the
	// check passed).
	Failures []uint64
}

// Passed reports whether every trial made progress.
func (r *ProgressResult) Passed() bool { return len(r.Failures) == 0 }

// Run executes the check.
func (c ProgressCheck) Run() (*ProgressResult, error) {
	if c.Topology == nil || c.Algorithm == nil || c.Scheduler == nil {
		return nil, fmt.Errorf("verify: ProgressCheck requires a topology, an algorithm and a scheduler factory")
	}
	if c.Trials <= 0 {
		c.Trials = 100
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 100_000
	}
	type trialResult struct {
		ok       bool
		firstEat float64
		seed     uint64
	}
	worlds := newTrialPool(c.Topology, c.Algorithm)
	perTrial, err := par.Trials(c.Workers, c.Trials, func(i int) (trialResult, error) {
		seed := c.Seed + uint64(i)*0x9e3779b9
		s := worlds.get()
		rng, sched := s.prepare(c.Scheduler, seed)
		if err := sim.RunWorldInto(&s.res, s.w, c.Algorithm, sched, rng, sim.RunOptions{
			MaxSteps:           c.MaxSteps,
			StopAfterTotalEats: 1,
			Stop:               c.Stop,
		}); err != nil {
			return trialResult{}, fmt.Errorf("verify: progress trial %d: %w", i, err)
		}
		tr := trialResult{ok: s.res.Progress(), firstEat: float64(s.res.FirstEatStep), seed: seed}
		worlds.put(s)
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	out := &ProgressResult{}
	for _, tr := range perTrial {
		out.Proportion.Add(tr.ok)
		if tr.ok {
			out.StepsToFirstMeal.Add(tr.firstEat)
		} else {
			out.Failures = append(out.Failures, tr.seed)
		}
	}
	return out, nil
}

// LockoutCheck is the Monte-Carlo form of the lockout-freedom statement
// T_i --(F, 1)--> E_i: every philosopher that becomes hungry eventually eats.
// A trial passes when every philosopher completes at least MealsEach meals
// within the step budget.
type LockoutCheck struct {
	Topology  *graph.Topology
	Algorithm sim.Program
	Scheduler SchedulerFactory
	Trials    int
	MaxSteps  int64
	MealsEach int64
	Seed      uint64
	// Workers bounds the trial goroutines (0 = one per CPU, 1 = sequential);
	// the result is identical for every value.
	Workers int
	// Stop is polled by every trial's step loop when non-nil; a true return
	// ends the trial early (see ProgressCheck.Stop).
	Stop func() bool
}

// LockoutResult summarises a LockoutCheck.
type LockoutResult struct {
	Proportion stats.Proportion
	// WorstJainIndex is the smallest Jain fairness index over per-philosopher
	// meal counts observed across trials.
	WorstJainIndex float64
	// Failures lists the seeds of failed trials.
	Failures []uint64
}

// Passed reports whether every trial served every philosopher.
func (r *LockoutResult) Passed() bool { return len(r.Failures) == 0 }

// Run executes the check.
func (c LockoutCheck) Run() (*LockoutResult, error) {
	if c.Topology == nil || c.Algorithm == nil || c.Scheduler == nil {
		return nil, fmt.Errorf("verify: LockoutCheck requires a topology, an algorithm and a scheduler factory")
	}
	if c.Trials <= 0 {
		c.Trials = 50
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 200_000
	}
	if c.MealsEach <= 0 {
		c.MealsEach = 1
	}
	type trialResult struct {
		ok   bool
		jain float64
		seed uint64
	}
	worlds := newTrialPool(c.Topology, c.Algorithm)
	perTrial, err := par.Trials(c.Workers, c.Trials, func(i int) (trialResult, error) {
		seed := c.Seed + uint64(i)*0x9e3779b9
		s := worlds.get()
		rng, sched := s.prepare(c.Scheduler, seed)
		if err := sim.RunWorldInto(&s.res, s.w, c.Algorithm, sched, rng, sim.RunOptions{
			MaxSteps: c.MaxSteps,
			Stop:     c.Stop,
		}); err != nil {
			return trialResult{}, fmt.Errorf("verify: lockout trial %d: %w", i, err)
		}
		ok := true
		for _, meals := range s.res.EatsBy {
			if meals < c.MealsEach {
				ok = false
				break
			}
		}
		tr := trialResult{ok: ok, jain: stats.JainIndex(s.res.EatsBy), seed: seed}
		worlds.put(s)
		return tr, nil
	})
	if err != nil {
		return nil, err
	}
	out := &LockoutResult{WorstJainIndex: 1}
	for _, tr := range perTrial {
		out.Proportion.Add(tr.ok)
		if tr.jain < out.WorstJainIndex {
			out.WorstJainIndex = tr.jain
		}
		if !tr.ok {
			out.Failures = append(out.Failures, tr.seed)
		}
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
