package dining

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"time"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
)

// seedStride separates derived per-trial seeds: trial i of an engine with
// base seed s runs with seed s + i*seedStride.
const seedStride = 0x9e3779b97f4a7c15

// config is the mutable bag the functional options write into; New freezes
// it into an immutable Engine.
type config struct {
	scheduler      string
	algoOpts       algo.Options
	protected      []graph.PhilID
	fairnessWindow int64
	seed           uint64
	workers        int
	shards         int
	maxSteps       int64
	maxStates      int
	trials         int
	symmetry       bool
	recorder       sim.Recorder

	faultName    string
	faultRates   []float64
	faultTargets []graph.PhilID
	faultModel   fault.Model // resolved by New from the three fields above
}

// maxM bounds AlgorithmOptions.M. GDP1 and GDP2 list all m draws in each
// outcome set, so m is bounded like the fork count it defaults to.
const maxM = graph.MaxTopologySize

// Option configures an Engine at construction time.
type Option func(*config)

// WithScheduler selects the scheduler by registered name (default Random).
func WithScheduler(name string) Option { return func(c *config) { c.scheduler = name } }

// WithSeed sets the base random seed (default 0). Trial i of a Monte-Carlo
// run derives its seed from the base seed and i alone, which is what makes
// streamed trials deterministic at any worker count.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithWorkers bounds the number of goroutines used by Trials, Check (its
// exploration, its property fan-out and its statistical trials) and Explore
// (0 = one per CPU, 1 = sequential). Results are identical for every value.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithShards splits the state-space store of Check and Explore
// explorations into 2^k independently-owned shards, so exploration workers
// intern and append states without a sequential per-level merge (rounded up
// to a power of two; 0 = match the worker count). Results — state counts,
// verdicts, counterexample traces — are identical for every value; only
// wall-clock and memory layout change.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithMaxSteps bounds the number of atomic steps per simulation run
// (0 = the simulator default).
func WithMaxSteps(n int64) Option { return func(c *config) { c.maxSteps = n } }

// WithAlgorithmOptions tunes the algorithm (number range m, courtesy
// variants, coin bias). GDP1 and GDP2 list all m draws in each outcome set,
// so New rejects an m above graph.MaxTopologySize (65,536), the largest
// fork count and so the largest default m. New also rejects a coin bias
// that is NaN or outside [0, 1); 0 is the fair coin.
func WithAlgorithmOptions(opts AlgorithmOptions) Option {
	return func(c *config) { c.algoOpts = opts }
}

// WithProtected restricts an adversary's (and the model checker's) target
// set to the given philosophers; empty means all of them. The set is
// canonical: New sorts it and drops duplicates, so {1, 0} and {0, 1, 1}
// configure one engine with one fingerprint.
func WithProtected(protected ...PhilID) Option {
	return func(c *config) { c.protected = append([]PhilID(nil), protected...) }
}

// WithFairnessWindow sets the bounded-fair adversary's window (0 = default).
func WithFairnessWindow(window int64) Option {
	return func(c *config) { c.fairnessWindow = window }
}

// WithMaxStates caps the state count of Check and Explore explorations
// (0 = the model-checker default).
func WithMaxStates(n int) Option { return func(c *config) { c.maxStates = n } }

// WithTrials sets the Monte-Carlo trial count used by the statistical
// properties of Check (0 = each check's default).
func WithTrials(n int) Option { return func(c *config) { c.trials = n } }

// WithSymmetry quotients the explorations of Check and Explore by the
// topology's automorphism group: states that are permutations of one another
// under a declared topology symmetry (ring rotations and reflections, star
// leaf permutations) are stored once, shrinking the state space by up to the
// group order while preserving every exhaustive verdict. The reduction only
// applies when it is sound — the engine's (possibly fault-wrapped) program
// must satisfy the paper's symmetry condition (Program.Symmetric; targeted
// faults disable it), reflections are used only for left/right-symmetric
// programs (sim.SideSymmetricProgram), and a protected set restricts the
// group to its setwise stabilizer. On asymmetric programs or topologies
// without declared symmetries the option is a no-op. Counterexample traces
// are lifted back to concrete schedules, so they replay on engines without
// the option. Verdicts are identical with and without symmetry; reported
// state and transition counts are per orbit, so they differ.
func WithSymmetry() Option { return func(c *config) { c.symmetry = true } }

// WithFaults injects the named fault model into the engine's transition
// system. The name may be a full fault spec ("crash-rejoin:0.1,0.5@2", see
// the grammar in internal/fault); explicit rates append after the spec's.
// Missing rates take the model's documented defaults. New validates
// everything eagerly — an unknown model name, a rate outside [0, 1], too
// many rates and a target philosopher the topology does not have are all
// construction-time errors. The Monte-Carlo simulator and the exhaustive
// model checker both run the wrapped program, so Run, Trials, Check and
// Explore all see the same perturbed MDP, and RunConcurrent runs it on
// goroutines: every model, and every rate per step, as in the checker.
func WithFaults(name string, rates ...float64) Option {
	return func(c *config) {
		c.faultName = name
		c.faultRates = append([]float64(nil), rates...)
	}
}

// WithFaultTargets restricts the engine's fault model to the given
// philosophers (default: all of them). It requires WithFaults; targeting
// without a model is a construction-time error.
func WithFaultTargets(phils ...PhilID) Option {
	return func(c *config) { c.faultTargets = append([]PhilID(nil), phils...) }
}

// WithRecorder attaches an event recorder to Run and Trials. A recorder
// observes a single event stream, so Trials rejects engines that have one
// combined with more than one worker; Run, a single run, takes it at any
// worker count.
func WithRecorder(r Recorder) Option { return func(c *config) { c.recorder = r } }

// Engine is an immutable, fully validated experiment configuration: a
// topology, an algorithm and a scheduler resolved against the registries,
// plus seeds, step budgets and worker counts. Construct one with New; an
// Engine is safe for concurrent use and every method may be called any
// number of times.
type Engine struct {
	topo *graph.Topology
	alg  string
	cfg  config
}

// New builds an Engine for the algorithm (by registered name) on the
// topology, applying the options. It validates everything eagerly: a nil or
// invalid topology, an unknown algorithm name and an unknown scheduler name
// are construction-time errors listing the registered options, and a
// protected philosopher or fault target the topology does not have, a
// negative count, bound or window, an AlgorithmOptions.M that is negative
// or above graph.MaxTopologySize (65,536) and an AlgorithmOptions.LeftBias
// that is NaN or outside [0, 1) are errors too.
func New(topo *Topology, algorithm string, opts ...Option) (*Engine, error) {
	if topo == nil {
		return nil, fmt.Errorf("dining: New requires a topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	c := config{scheduler: Random}
	for _, opt := range opts {
		opt(&c)
	}
	if _, err := algo.New(algorithm, c.algoOpts); err != nil {
		return nil, err
	}
	// Probe the scheduler with a throwaway random source, so custom
	// constructors that draw randomness at construction time survive eager
	// validation.
	if _, err := c.newScheduler(prng.New(c.seed)); err != nil {
		return nil, err
	}
	for _, p := range c.protected {
		if p < 0 || int(p) >= topo.NumPhilosophers() {
			return nil, fmt.Errorf("dining: protected philosopher %d out of range [0, %d) on topology %s", p, topo.NumPhilosophers(), topo.Name())
		}
	}
	slices.Sort(c.protected)
	c.protected = slices.Compact(c.protected)
	if c.maxSteps < 0 {
		return nil, fmt.Errorf("dining: WithMaxSteps(%d) is negative", c.maxSteps)
	}
	if c.workers < 0 {
		return nil, fmt.Errorf("dining: WithWorkers(%d) is negative (0 means one per CPU)", c.workers)
	}
	if c.shards < 0 {
		return nil, fmt.Errorf("dining: WithShards(%d) is negative (0 means match the worker count)", c.shards)
	}
	if c.maxStates < 0 {
		return nil, fmt.Errorf("dining: WithMaxStates(%d) is negative", c.maxStates)
	}
	if c.trials < 0 {
		return nil, fmt.Errorf("dining: WithTrials(%d) is negative", c.trials)
	}
	if c.fairnessWindow < 0 {
		return nil, fmt.Errorf("dining: WithFairnessWindow(%d) is negative (0 means the default window)", c.fairnessWindow)
	}
	if c.algoOpts.M < 0 {
		return nil, fmt.Errorf("dining: AlgorithmOptions.M = %d is negative (0 means the number of forks)", c.algoOpts.M)
	}
	if c.algoOpts.M > maxM {
		return nil, fmt.Errorf("dining: AlgorithmOptions.M = %d exceeds the bound %d", c.algoOpts.M, maxM)
	}
	if lb := c.algoOpts.LeftBias; !(lb >= 0 && lb < 1) {
		return nil, fmt.Errorf("dining: AlgorithmOptions.LeftBias = %v is outside [0, 1) (0 means the fair coin)", lb)
	}
	if c.faultName != "" {
		name, fcfg, err := fault.ParseSpec(c.faultName)
		if err != nil {
			return nil, err
		}
		fcfg.Rates = append(fcfg.Rates, c.faultRates...)
		fcfg.Phils = append(fcfg.Phils, c.faultTargets...)
		m, err := fault.New(name, fcfg)
		if err != nil {
			return nil, err
		}
		if err := m.Validate(topo); err != nil {
			return nil, err
		}
		c.faultModel = m
	} else if len(c.faultRates) > 0 || len(c.faultTargets) > 0 {
		return nil, fmt.Errorf("dining: fault rates and WithFaultTargets require WithFaults")
	}
	return &Engine{topo: topo, alg: algorithm, cfg: c}, nil
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *Topology { return e.topo }

// Algorithm returns the engine's algorithm name.
func (e *Engine) Algorithm() string { return e.alg }

// Scheduler returns the engine's scheduler name.
func (e *Engine) Scheduler() string { return e.cfg.scheduler }

// Seed returns the engine's base seed.
func (e *Engine) Seed() uint64 { return e.cfg.seed }

// Workers returns the engine's worker bound (0 = one per CPU).
func (e *Engine) Workers() int { return e.cfg.workers }

// Shards returns the engine's exploration shard count (0 = match workers).
func (e *Engine) Shards() int { return e.cfg.shards }

// MaxSteps returns the engine's per-run step bound (0 = simulator default).
func (e *Engine) MaxSteps() int64 { return e.cfg.maxSteps }

// MaxStates returns the engine's exploration state cap (0 = model-checker
// default).
func (e *Engine) MaxStates() int { return e.cfg.maxStates }

// TrialCount returns the engine's statistical trial count (0 = each check's
// default). The name avoids colliding with the Trials stream method.
func (e *Engine) TrialCount() int { return e.cfg.trials }

// Symmetry reports whether the engine quotients its explorations by the
// topology's automorphism group (WithSymmetry).
func (e *Engine) Symmetry() bool { return e.cfg.symmetry }

// FairnessWindow returns the engine's bounded-fair adversary window
// (0 = default).
func (e *Engine) FairnessWindow() int64 { return e.cfg.fairnessWindow }

// AlgorithmOptions returns the engine's algorithm options.
func (e *Engine) AlgorithmOptions() AlgorithmOptions { return e.cfg.algoOpts }

// Protected returns a copy of the engine's protected philosopher set in
// increasing order without duplicates (empty = all philosophers).
func (e *Engine) Protected() []PhilID { return append([]PhilID(nil), e.cfg.protected...) }

// Faults returns the canonical spec of the engine's fault model
// ("crash-rejoin:0.05,0.5"), or "" when the engine injects no faults.
func (e *Engine) Faults() string {
	if e.cfg.faultModel == nil {
		return ""
	}
	return e.cfg.faultModel.Spec()
}

// program constructs the engine's algorithm program, wrapped by the fault
// model when one is configured — the single assembly point that keeps the
// simulator, the model checker and trace replay on the same (possibly
// perturbed) transition system.
func (e *Engine) program() (sim.Program, error) {
	prog, err := algo.New(e.alg, e.cfg.algoOpts)
	if err != nil || e.cfg.faultModel == nil {
		return prog, err
	}
	return e.cfg.faultModel.Wrap(e.topo, prog), nil
}

// newScheduler constructs the configured scheduler from the registry,
// drawing any randomness from rng.
func (c *config) newScheduler(rng *prng.Source) (sim.Scheduler, error) {
	return sched.New(c.scheduler, sched.Config{
		RNG:            rng,
		Protected:      c.protected,
		FairnessWindow: c.fairnessWindow,
	})
}

// orBackground substitutes context.Background for a nil ctx so that every
// engine entry point tolerates nil uniformly.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// runOptions is the simulator configuration of Run and of every trial.
func (e *Engine) runOptions() sim.RunOptions {
	return sim.RunOptions{MaxSteps: e.cfg.maxSteps, Recorder: e.cfg.recorder}
}

// trialSeed derives the seed of trial i from the base seed and i alone.
func (e *Engine) trialSeed(i int) uint64 { return e.cfg.seed + uint64(i)*seedStride }

// Run executes one simulation with the engine's base seed from a freshly
// built world — the engine's only fresh-world run, and the only one whose
// result keeps its final world. It reproduces trial 0 of Trials exactly.
// Cancelling ctx ends the run and returns the context's error.
func (e *Engine) Run(ctx context.Context) (*SimResult, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := e.program()
	if err != nil {
		return nil, err
	}
	rng := prng.New(e.cfg.seed)
	scheduler, err := e.cfg.newScheduler(rng.Split())
	if err != nil {
		return nil, err
	}
	opts := e.runOptions()
	if ctx.Done() != nil {
		opts.Stop = func() bool { return ctx.Err() != nil }
	}
	res, err := sim.Run(e.topo, prog, scheduler, rng, opts)
	if err != nil {
		return nil, err
	}
	if res.Reason == sim.StopCancelled {
		return nil, ctx.Err()
	}
	return res, nil
}

// TrialResult is one entry of a trial stream: the trial's index and seed
// plus a flat, JSON-stable summary of the run.
type TrialResult struct {
	Trial          int      `json:"trial"`
	Seed           uint64   `json:"seed"`
	Topology       string   `json:"topology"`
	Algorithm      string   `json:"algorithm"`
	Scheduler      string   `json:"scheduler"`
	Steps          int64    `json:"steps"`
	TotalEats      int64    `json:"total_eats"`
	EatsBy         []int64  `json:"eats_by"`
	FirstEatStep   int64    `json:"first_eat_step"`
	MeanWaitSteps  float64  `json:"mean_wait_steps"`
	MaxScheduleGap int64    `json:"max_schedule_gap"`
	Starved        []PhilID `json:"starved,omitempty"`
	Reason         string   `json:"reason"`
}

// newTrialResult flattens a trial's recycled simulation result into the
// stream entry, copying the slices the harness reuses.
func newTrialResult(trial int, seed uint64, res *SimResult) TrialResult {
	return TrialResult{
		Trial:          trial,
		Seed:           seed,
		Topology:       res.Topology,
		Algorithm:      res.Algorithm,
		Scheduler:      res.SchedulerName,
		Steps:          res.Steps,
		TotalEats:      res.TotalEats,
		EatsBy:         append([]int64(nil), res.EatsBy...),
		FirstEatStep:   res.FirstEatStep,
		MeanWaitSteps:  res.MeanWaitSteps,
		MaxScheduleGap: res.MaxScheduleGap,
		Starved:        append([]PhilID(nil), res.Starved...),
		Reason:         string(res.Reason),
	}
}

// batch describes Monte-Carlo trials of the engine for the warm-start
// harness (verify.Trials): the engine's (possibly fault-wrapped) program and
// scheduler, trial i seeded seed(i) and run with opts, across workers
// goroutines.
func (e *Engine) batch(workers int, seed func(int) uint64, opts sim.RunOptions) (verify.Batch, error) {
	prog, err := e.program()
	if err != nil {
		return verify.Batch{}, err
	}
	return verify.Batch{
		Topology:  e.topo,
		Program:   prog,
		Scheduler: e.schedulerFactory(),
		Options:   opts,
		Seed:      seed,
		Workers:   workers,
	}, nil
}

// sample runs n trials of e on the warm-start harness, trial i seeded
// seed(i) and run with opts across workers goroutines, and returns fold's
// value for each in trial-index order (verify.Collect). The statistical
// properties and the experiment suite's Monte-Carlo rows run through it.
func sample[T any](ctx context.Context, e *Engine, workers, n int, seed func(int) uint64, opts sim.RunOptions, fold func(int, uint64, *SimResult) T) ([]T, error) {
	b, err := e.batch(workers, seed, opts)
	if err != nil {
		return nil, err
	}
	return verify.Collect(ctx, b, n, fold)
}

// strided returns the seed schedule base + i*stride.
func strided(base, stride uint64) func(int) uint64 {
	return func(i int) uint64 { return base + uint64(i)*stride }
}

// Trials streams n Monte-Carlo trials, yielding each TrialResult as its
// worker finishes — completion order, not index order. The trials run on
// the warm-start harness (each worker recycles its world, run summary and
// scheduler), and each trial's seed depends only on its index, so the
// result yielded for a given index is bit-identical to a fresh run with
// that seed, whatever the worker count; aggregate in index order to
// reproduce a sequential run exactly. The stream stops at the first trial
// error or context cancellation, yielding that error last.
func (e *Engine) Trials(ctx context.Context, n int) iter.Seq2[TrialResult, error] {
	ctx = orBackground(ctx)
	if n <= 0 {
		n = 1 // the degenerate request still runs one trial
	}
	return func(yield func(TrialResult, error) bool) {
		// A recorder observes a single event stream.
		workers := e.cfg.workers
		if e.cfg.recorder != nil {
			if workers > 1 {
				yield(TrialResult{}, fmt.Errorf("dining: WithRecorder requires WithWorkers(1), got %d", workers))
				return
			}
			workers = 1
		}
		b, err := e.batch(workers, e.trialSeed, e.runOptions())
		if err != nil {
			yield(TrialResult{}, err)
			return
		}
		for s := range verify.Trials(ctx, b, n, newTrialResult) {
			if s.Err != nil {
				yield(TrialResult{Trial: s.Index, Seed: e.trialSeed(s.Index)}, s.Err)
				return
			}
			if !yield(s.Value, nil) {
				return
			}
		}
	}
}

// RunConcurrent executes the system on the goroutine runtime for the given
// duration (or until every philosopher has eaten targetMeals times). The
// goroutines run the engine's program — the one Run, Check and Explore run,
// with its algorithm options and fault model — so every registered
// algorithm and fault model runs concurrently, and the run is a path of the
// MDP that Explore builds.
func (e *Engine) RunConcurrent(ctx context.Context, duration time.Duration, targetMeals int64) (*ConcurrentMetrics, error) {
	prog, err := e.program()
	if err != nil {
		return nil, err
	}
	return runtime.Run(orBackground(ctx), runtime.Config{
		Topology:                  e.topo,
		Program:                   prog,
		TargetMealsPerPhilosopher: targetMeals,
		MaxDuration:               duration,
		Seed:                      e.cfg.seed,
	})
}
