package dining

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"slices"

	"repro/internal/graph"
	"repro/internal/modelcheck"
	"repro/internal/par"
	"repro/internal/prng"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file is the property layer: the paper's claims (deadlock-freedom,
// progress, lockout-freedom, starvation traps — Theorems 1–4) as first-class,
// pluggable checks. Properties live in the fourth open registry next to
// topologies, algorithms and schedulers; Engine.Check resolves names against
// it, explores the state space once (in parallel) when any exhaustive
// property is requested, and streams one PropertyResult per property. Every
// exhaustive failure carries a replayable counterexample Trace.

// PropertyKind classifies how a property is checked.
type PropertyKind string

const (
	// ExhaustiveProperty marks properties decided on the fully explored
	// state space (PropertyInput.Space). Their verdicts are proofs for the
	// explored instance, and their failures carry counterexample traces.
	ExhaustiveProperty PropertyKind = "exhaustive"
	// StatisticalProperty marks Monte-Carlo properties that sample runs
	// through the engine's scheduler instead of exploring exhaustively.
	StatisticalProperty PropertyKind = "statistical"
)

// Names of the built-in properties (see the property registry).
const (
	// DeadlockFreedom: no reachable state in which every action of every
	// philosopher is a self-loop.
	DeadlockFreedom = "deadlock-freedom"
	// Progress: from every reachable state a meal remains reachable
	// (eat-reachable-from-everywhere); a failure exhibits a true dead end.
	Progress = "progress"
	// LockoutFreedom: no philosopher in the protected set (all of them when
	// the set is empty) can be individually starved forever by a fair
	// adversary.
	LockoutFreedom = "lockout-freedom"
	// StarvationTrap: no fair adversary can confine the system to a region
	// in which no protected philosopher ever eats — the machine-checked form
	// of Theorems 1–4. The property FAILS when such a trap exists.
	StarvationTrap = "starvation-trap"
	// StatisticalProgress is the Monte-Carlo progress check: every sampled
	// run must reach a first meal.
	StatisticalProgress = "statistical-progress"
	// StatisticalLockout is the Monte-Carlo lockout-freedom check: every
	// sampled run must serve every philosopher at least once.
	StatisticalLockout = "statistical-lockout"
	// ProgressUnderFaults is the recoverable-variant progress check: the
	// Progress analysis run exhaustively on the fault-perturbed state space
	// (the engine must have WithFaults). A failure means the injected faults
	// can drive the system into a region from which no meal is ever
	// reachable, and carries a replayable fault-labelled counterexample.
	ProgressUnderFaults = "progress-under-faults"
	// LockoutFreedomUnderFaults is the recoverable-variant lockout-freedom
	// check: no fair adversary, with the injected faults at its disposal, can
	// starve a protected philosopher forever (requires WithFaults).
	LockoutFreedomUnderFaults = "lockout-freedom-under-faults"
)

// StateSpace is the explored MDP an exhaustive property is decided on. See
// internal/modelcheck for the analyses it offers.
type StateSpace = modelcheck.StateSpace

// Trace is a replayable counterexample: the scheduler-choice path from the
// initial state to a property-violating state, with a stable JSON wire
// format. Engine.ReplayTrace re-executes one and verifies where it lands.
type Trace = trace.Trace

// TraceStep is one scheduler choice of a Trace.
type TraceStep = trace.Step

// PropertyInput is what a property check receives: the engine under check
// and, for exhaustive properties, the explored state space (shared by every
// exhaustive property of one Engine.Check call).
type PropertyInput struct {
	// Engine is the engine being checked (always set).
	Engine *Engine
	// Space is the explored state space; set iff the property is exhaustive.
	Space *StateSpace
}

// Property is a checkable claim about a system. Implementations register
// through RegisterProperty and become selectable by name in Engine.Check and
// the -props flag of the CLI tools. A Property must be stateless and safe
// for concurrent use: one instance serves every engine and every check.
type Property interface {
	// Name returns the registered property name ("deadlock-freedom").
	Name() string
	// Kind reports how the property is checked; it decides whether Check
	// receives an explored state space.
	Kind() PropertyKind
	// Check decides the property. A failed property is NOT an error: it
	// returns a PropertyResult with Passed false (ideally with a
	// counterexample). The error return is for infrastructure failures —
	// context cancellation, truncated exploration a check cannot tolerate,
	// simulation errors.
	Check(ctx context.Context, in PropertyInput) (PropertyResult, error)
}

// PropertyResult is the verdict of one property on one engine: the stable
// JSON wire format emitted by dpcheck -json and dpadversary -json.
type PropertyResult struct {
	// Property and Kind identify the check.
	Property string       `json:"property"`
	Kind     PropertyKind `json:"kind"`
	// Topology, Algorithm and (for statistical checks) Scheduler identify
	// the system.
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler,omitempty"`
	// Faults is the canonical spec of the engine's fault model, empty for
	// unperturbed engines. When set, the verdict is about the perturbed
	// system: exhaustive properties were decided on the fault-injected state
	// space and statistical properties sampled fault-injected runs.
	Faults string `json:"faults,omitempty"`
	// Protected is the engine's protected set (empty = all philosophers).
	Protected []PhilID `json:"protected,omitempty"`
	// Passed is the verdict; Detail explains it in one line.
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
	// States, Transitions and Truncated describe the explored space
	// (exhaustive properties only). A truncated exploration proves nothing
	// beyond the explored fragment.
	States      int  `json:"states,omitempty"`
	Transitions int  `json:"transitions,omitempty"`
	Truncated   bool `json:"truncated,omitempty"`
	// TrapStates is the size of the starvation trap found (trap-based
	// failures only).
	TrapStates int `json:"trap_states,omitempty"`
	// Trials and Failures summarise statistical checks.
	Trials   int `json:"trials,omitempty"`
	Failures int `json:"failures,omitempty"`
	// Counterexample is the replayable path to a violating state, present on
	// exhaustive failures.
	Counterexample *Trace `json:"counterexample,omitempty"`
}

// PropertyFunc adapts a function to the Property interface — the quickest
// way to register a custom property:
//
//	dining.RegisterProperty(dining.PropertyFunc{
//		PropName: "my-invariant",
//		PropKind: dining.ExhaustiveProperty,
//		Func:     func(ctx context.Context, in dining.PropertyInput) (dining.PropertyResult, error) { ... },
//	})
type PropertyFunc struct {
	PropName string
	PropKind PropertyKind
	Func     func(ctx context.Context, in PropertyInput) (PropertyResult, error)
}

// Name implements Property.
func (f PropertyFunc) Name() string { return f.PropName }

// Kind implements Property.
func (f PropertyFunc) Kind() PropertyKind { return f.PropKind }

// Check implements Property.
func (f PropertyFunc) Check(ctx context.Context, in PropertyInput) (PropertyResult, error) {
	return f.Func(ctx, in)
}

// properties is the fourth open registry, next to topologies, algorithms and
// schedulers.
var properties = registry.New[Property]("dining", "property")

// RegisterProperty registers a property under p.Name(). The name becomes
// valid everywhere a property name is accepted: Engine.Check, CheckAll and
// the -props flag of the CLI tools. Like the other registries it panics on
// an empty name, a nil property or a duplicate name — registration is
// init-time wiring whose collisions must not be resolved silently.
func RegisterProperty(p Property) {
	if p == nil {
		panic("dining: RegisterProperty(nil)")
	}
	properties.Register(p.Name(), p)
}

// Properties returns every registered property name in sorted order.
func Properties() []string { return properties.Names() }

// LookupProperty returns the named registered property. Unknown names
// produce a one-line error listing the registered options.
func LookupProperty(name string) (Property, error) { return properties.Lookup(name) }

// ExhaustiveProperties returns the names of the four exhaustive built-ins —
// the default property set of Engine.Check — in check order.
func ExhaustiveProperties() []string {
	return []string{DeadlockFreedom, Progress, LockoutFreedom, StarvationTrap}
}

func init() {
	RegisterProperty(PropertyFunc{DeadlockFreedom, ExhaustiveProperty, checkDeadlockFreedom})
	RegisterProperty(PropertyFunc{Progress, ExhaustiveProperty, checkProgress})
	RegisterProperty(PropertyFunc{LockoutFreedom, ExhaustiveProperty, checkLockoutFreedom})
	RegisterProperty(PropertyFunc{StarvationTrap, ExhaustiveProperty, checkStarvationTrap})
	RegisterProperty(PropertyFunc{StatisticalProgress, StatisticalProperty, checkStatisticalProgress})
	RegisterProperty(PropertyFunc{StatisticalLockout, StatisticalProperty, checkStatisticalLockout})
	RegisterProperty(PropertyFunc{ProgressUnderFaults, ExhaustiveProperty, checkProgressUnderFaults})
	RegisterProperty(PropertyFunc{LockoutFreedomUnderFaults, ExhaustiveProperty, checkLockoutFreedomUnderFaults})
}

// Check resolves the named properties against the registry — no names
// selects the four exhaustive built-ins — explores the state space once (in
// parallel across WithWorkers goroutines) when any exhaustive property is
// requested, and streams one PropertyResult per property as its check
// completes. The stream stops at the first error (an unknown property name,
// a cancelled context, a failed check infrastructure), yielding that error
// last; a property that merely FAILS is a regular result with Passed false
// and, for exhaustive properties, a replayable counterexample trace.
func (e *Engine) Check(ctx context.Context, props ...string) iter.Seq2[PropertyResult, error] {
	ctx = orBackground(ctx)
	return func(yield func(PropertyResult, error) bool) {
		list, err := ResolveProperties(props)
		if err != nil {
			yield(PropertyResult{}, err)
			return
		}
		var ss *StateSpace
		for _, p := range list {
			if p.Kind() == ExhaustiveProperty {
				if ss, err = e.explore(ctx); err != nil {
					yield(PropertyResult{}, err)
					return
				}
				break
			}
		}
		for s := range par.Stream(ctx, e.cfg.workers, len(list), func(i int) (PropertyResult, error) {
			in := PropertyInput{Engine: e}
			if list[i].Kind() == ExhaustiveProperty {
				in.Space = ss
			}
			return list[i].Check(ctx, in)
		}) {
			if s.Err != nil {
				yield(PropertyResult{}, s.Err)
				return
			}
			if !yield(s.Value, nil) {
				return
			}
		}
	}
}

// CheckAll runs Check and returns the results in property order — the
// blocking counterpart of the Check stream.
func (e *Engine) CheckAll(ctx context.Context, props ...string) ([]PropertyResult, error) {
	list, err := ResolveProperties(props)
	if err != nil {
		return nil, err
	}
	// Results stream in completion order; map each back to its position in
	// the request. A name requested twice owns two positions (its checks are
	// identical, so which result lands where is immaterial).
	positions := make(map[string][]int, len(list))
	for i, p := range list {
		positions[p.Name()] = append(positions[p.Name()], i)
	}
	results := make([]PropertyResult, len(list))
	for res, err := range e.Check(ctx, props...) {
		if err != nil {
			return nil, err
		}
		at := positions[res.Property]
		results[at[0]] = res
		positions[res.Property] = at[1:]
	}
	return results, nil
}

// ReplayTrace re-executes a counterexample trace against this engine's
// topology and algorithm and verifies that it lands in the exact state the
// trace reports (the hex-encoded canonical key). It is the public form of
// the replay check the trace tests pin.
func (e *Engine) ReplayTrace(t *Trace) error {
	prog, err := e.program()
	if err != nil {
		return err
	}
	_, err = trace.Replay(e.topo, prog, t)
	return err
}

// Explore builds and returns the engine's explored state space — the exact
// exploration Engine.Check runs once for its exhaustive properties, on the
// same (possibly fault-perturbed) transition system, with the engine's
// worker and shard configuration. The returned space is immutable and safe
// for concurrent use, and it keeps every analysis it runs — the predecessor
// index, deadlock and dead-region states, each starvation trap and each
// counterexample path, each computed at most once — which is what lets
// long-lived services cache explored spaces across requests keyed by
// Engine.Fingerprint and hand one space to many concurrent property checks:
// Property.Check accepts it through PropertyInput.Space, and a check after
// the first re-runs no analysis (except lockout-freedom on a symmetric
// engine, which re-explores the unreduced space each time). Cancelling ctx
// aborts the exploration.
func (e *Engine) Explore(ctx context.Context) (*StateSpace, error) {
	ctx = orBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.explore(ctx)
}

// ResolveProperties maps names to registered properties in order, as Check
// and CheckAll resolve them: no names selects the exhaustive built-ins, and
// an unknown name is an error listing the registered ones.
func ResolveProperties(names []string) ([]Property, error) {
	if len(names) == 0 {
		names = ExhaustiveProperties()
	}
	list := make([]Property, len(names))
	for i, name := range names {
		p, err := LookupProperty(name)
		if err != nil {
			return nil, err
		}
		list[i] = p
	}
	return list, nil
}

// explore builds the engine's state space with the engine's worker count,
// wiring ctx cancellation into the exploration loop.
func (e *Engine) explore(ctx context.Context) (*StateSpace, error) {
	return e.exploreQuotient(ctx, e.cfg.symmetry)
}

// exploreQuotient is explore with the symmetry quotient explicitly on or
// off; the lockout checks use it to re-explore unreduced.
func (e *Engine) exploreQuotient(ctx context.Context, symmetry bool) (*StateSpace, error) {
	prog, err := e.program()
	if err != nil {
		return nil, err
	}
	opts := modelcheck.Options{
		MaxStates: e.cfg.maxStates,
		Protected: e.cfg.protected,
		Workers:   e.cfg.workers,
		Shards:    e.cfg.shards,
	}
	if symmetry {
		canon, err := e.canonicalizer(prog)
		if err != nil {
			return nil, err
		}
		opts.Symmetry = canon
	}
	if ctx.Done() != nil {
		opts.Interrupt = ctx.Err
	}
	return modelcheck.Explore(e.topo, prog, opts)
}

// canonicalizer builds the orbit canonicalizer of a symmetry-enabled
// exploration, applying the soundness gates: no quotient at all for programs
// that break the paper's symmetry condition (including fault-targeted ones),
// orientation-preserving automorphisms only unless the program is invariant
// under the left/right swap, and the setwise stabilizer of a configured
// protected set. The result may be trivial (identity-only), which the model
// checker treats as symmetry off.
func (e *Engine) canonicalizer(prog sim.Program) (*graph.OrbitCanonicalizer, error) {
	if !prog.Symmetric() {
		return nil, nil
	}
	copts := graph.CanonOptions{
		OrientationPreserving: true,
		Stabilize:             e.cfg.protected,
	}
	if sp, ok := prog.(sim.SideSymmetricProgram); ok && sp.SideSymmetric() {
		copts.OrientationPreserving = false
	}
	return graph.NewOrbitCanonicalizer(e.topo, copts)
}

// newResult seeds a PropertyResult with the identity of the check.
func (in PropertyInput) newResult(name string, kind PropertyKind) PropertyResult {
	e := in.Engine
	r := PropertyResult{
		Property:  name,
		Kind:      kind,
		Topology:  e.topo.Name(),
		Algorithm: e.alg,
		Faults:    e.Faults(),
		Protected: append([]PhilID(nil), e.cfg.protected...),
	}
	if in.Space != nil {
		r.States = in.Space.NumStates()
		r.Transitions = in.Space.NumTransitions()
		r.Truncated = in.Space.Truncated
	}
	if kind == StatisticalProperty {
		r.Scheduler = e.cfg.scheduler
	}
	return r
}

// --- Exhaustive built-ins ---

func checkDeadlockFreedom(_ context.Context, in PropertyInput) (PropertyResult, error) {
	res := in.newResult(DeadlockFreedom, ExhaustiveProperty)
	dead := in.Space.DeadlockStates()
	if len(dead) == 0 {
		res.Passed = true
		res.Detail = "no reachable deadlock state"
		return res, nil
	}
	res.Detail = fmt.Sprintf("%d reachable deadlock state(s): every philosopher's every action is a self-loop", len(dead))
	cx, err := in.Space.CounterexampleTo(DeadlockFreedom, dead[0])
	if err != nil {
		return res, err
	}
	res.Counterexample = cx
	return res, nil
}

func checkProgress(_ context.Context, in PropertyInput) (PropertyResult, error) {
	return checkProgressAs(Progress, in)
}

// checkProgressAs decides eat-reachable-from-everywhere on the explored
// space under the given property name; Progress and ProgressUnderFaults
// share it, since the exploration already ran on the (possibly perturbed)
// transition system.
func checkProgressAs(name string, in PropertyInput) (PropertyResult, error) {
	res := in.newResult(name, ExhaustiveProperty)
	dead := in.Space.DeadRegionStates()
	if len(dead) == 0 {
		res.Passed = true
		res.Detail = "a meal remains reachable from every reachable state"
		if res.Faults != "" {
			res.Detail += " under " + res.Faults
		}
		return res, nil
	}
	res.Detail = fmt.Sprintf("%d reachable state(s) from which no meal is reachable under any scheduling", len(dead))
	cx, err := in.Space.CounterexampleTo(name, dead[0])
	if err != nil {
		return res, err
	}
	res.Counterexample = cx
	return res, nil
}

// checkProgressUnderFaults is the recoverable-variant progress check: it
// requires a fault-injected engine (the unperturbed check is Progress) and
// decides progress on the perturbed state space.
func checkProgressUnderFaults(_ context.Context, in PropertyInput) (PropertyResult, error) {
	if in.Engine.cfg.faultModel == nil {
		return PropertyResult{}, fmt.Errorf("dining: property %s requires a fault model (use WithFaults; registered: %v)",
			ProgressUnderFaults, Faults())
	}
	return checkProgressAs(ProgressUnderFaults, in)
}

// checkLockoutFreedomUnderFaults is the recoverable-variant lockout-freedom
// check; like ProgressUnderFaults it refuses unperturbed engines.
func checkLockoutFreedomUnderFaults(ctx context.Context, in PropertyInput) (PropertyResult, error) {
	if in.Engine.cfg.faultModel == nil {
		return PropertyResult{}, fmt.Errorf("dining: property %s requires a fault model (use WithFaults; registered: %v)",
			LockoutFreedomUnderFaults, Faults())
	}
	return checkLockoutFreedomAs(ctx, LockoutFreedomUnderFaults, in)
}

func checkStarvationTrap(_ context.Context, in PropertyInput) (PropertyResult, error) {
	res := in.newResult(StarvationTrap, ExhaustiveProperty)
	trap := in.Space.FindStarvationTrap()
	phils := in.Engine.topo.NumPhilosophers()
	if !trapped(trap) {
		res.Passed = true
		res.Detail = fmt.Sprintf("no fair starvation trap (safe region %d states, best coverage %d/%d philosophers)",
			trap.SafeRegionStates, len(trap.CoveredActions), phils)
		return res, nil
	}
	res.TrapStates = trap.States
	res.Detail = fmt.Sprintf("a fair adversary can starve the protected set forever: trap of %d states inside a %d-state safe region",
		trap.States, trap.SafeRegionStates)
	cx, err := in.Space.CounterexampleTo(StarvationTrap, trap.WitnessState)
	if err != nil {
		return res, err
	}
	res.Counterexample = cx
	return res, nil
}

func checkLockoutFreedom(ctx context.Context, in PropertyInput) (PropertyResult, error) {
	return checkLockoutFreedomAs(ctx, LockoutFreedom, in)
}

// checkLockoutFreedomAs decides individual starvation traps on the explored
// space under the given property name; LockoutFreedom and
// LockoutFreedomUnderFaults share it. Each philosopher's trap comes from the
// space's memo (StateSpace.FindStarvationTrapAgainst), so a re-check of a
// cached space re-runs no analysis, and with one protected philosopher the
// trap is the one starvation-trap computes.
func checkLockoutFreedomAs(ctx context.Context, name string, in PropertyInput) (PropertyResult, error) {
	res := in.newResult(name, ExhaustiveProperty)
	space := in.Space
	if space.Symmetric() {
		// The per-philosopher trap labellings ("philosopher p eats") are not
		// invariant under automorphisms that move p, so they cannot be decided
		// on the quotient space. Re-explore unreduced once; the per-philosopher
		// fan-out below shares the space.
		var err error
		if space, err = in.Engine.exploreQuotient(ctx, false); err != nil {
			return res, err
		}
	}
	phils := in.Engine.cfg.protected
	if len(phils) == 0 {
		phils = make([]PhilID, in.Engine.topo.NumPhilosophers())
		for i := range phils {
			phils[i] = PhilID(i)
		}
	}
	// One trap analysis per protected philosopher, fanned across the
	// engine's workers over the shared space. The lowest-index philosopher
	// whose analysis fails or finds a trap decides the verdict, so results
	// settle in index order: the stream stops once every philosopher below
	// a deciding one is settled clear, and par.Stream then starts no later
	// analysis. The verdict, and at workers == 1 (which runs inline in index
	// order) the set of philosophers analysed, match the sequential loop's.
	traps := make([]modelcheck.Trap, len(phils))
	errs := make([]error, len(phils))
	delivered := make([]bool, len(phils))
	settled := 0 // phils[:settled] are delivered with neither error nor trap
	for s := range par.Stream(ctx, in.Engine.cfg.workers, len(phils), func(i int) (modelcheck.Trap, error) {
		return space.FindStarvationTrapAgainst([]PhilID{phils[i]})
	}) {
		traps[s.Index], errs[s.Index], delivered[s.Index] = s.Value, s.Err, true
		for settled < len(phils) && delivered[settled] && errs[settled] == nil && !trapped(traps[settled]) {
			settled++
		}
		if settled < len(phils) && delivered[settled] {
			break
		}
	}
	if settled == len(phils) {
		res.Passed = true
		res.Detail = fmt.Sprintf("no individual starvation trap against any of %d philosopher(s)", len(phils))
		return res, nil
	}
	if err := errs[settled]; err != nil {
		return res, err
	}
	trap := traps[settled]
	res.TrapStates = trap.States
	res.Detail = fmt.Sprintf("a fair adversary can starve philosopher %d forever: trap of %d states", phils[settled], trap.States)
	cx, err := space.CounterexampleTo(name, trap.WitnessState)
	if err != nil {
		return res, err
	}
	res.Counterexample = cx
	return res, nil
}

// trapped reports whether a trap analysis found a reachable trap — the
// refutation of starvation-trap and lockout-freedom.
func trapped(t modelcheck.Trap) bool { return t.Exists && t.Reachable }

// --- Statistical built-ins (Monte-Carlo, on the warm-start trial harness) ---

// statSeedStride separates the trials of the statistical checks: trial i of
// a check with base seed s runs with seed s + i*statSeedStride.
const statSeedStride = 0x9e3779b9

// schedulerFactory adapts the engine's scheduler configuration to the
// per-trial constructor of the trial harness.
func (e *Engine) schedulerFactory() verify.SchedulerFactory {
	return func(rng *prng.Source) sim.Scheduler {
		s, err := e.cfg.newScheduler(rng)
		if err != nil {
			// New validated the scheduler name eagerly; reaching this means
			// the registry entry was removed at runtime, a programming error.
			panic(err)
		}
		return s
	}
}

// firstMealStep folds a trial to the step of its first meal, or -1 when it
// completed none.
func firstMealStep(_ int, _ uint64, res *SimResult) int64 {
	if !res.Progress() {
		return -1
	}
	return res.FirstEatStep
}

// firstMeals counts the trials that made progress and averages their step
// of first meal, over the per-trial values of firstMealStep.
func firstMeals(steps []int64) (progressed int, mean float64) {
	var firstMeal stats.Running
	for _, step := range steps {
		if step >= 0 {
			progressed++
			firstMeal.Add(float64(step))
		}
	}
	return progressed, firstMeal.Mean()
}

// checkStatisticalProgress is the Monte-Carlo form of the progress statement
// T --(F, p)--> E: every trial starts from the all-thinking initial state
// under the saturated workload and must complete a meal within the step
// budget (defaults: 100 trials of 100,000 steps).
func checkStatisticalProgress(ctx context.Context, in PropertyInput) (PropertyResult, error) {
	e := in.Engine
	res := in.newResult(StatisticalProgress, StatisticalProperty)
	seed := strided(e.cfg.seed, statSeedStride)
	opts := sim.RunOptions{MaxSteps: cmp.Or(e.cfg.maxSteps, 100_000), StopAfterTotalEats: 1}
	steps, err := sample(ctx, e, e.cfg.workers, cmp.Or(e.cfg.trials, 100), seed, opts, firstMealStep)
	if err != nil {
		return res, err
	}
	progressed, mean := firstMeals(steps)
	res.Trials = len(steps)
	res.Failures = res.Trials - progressed
	res.Passed = res.Failures == 0
	if res.Passed {
		res.Detail = fmt.Sprintf("progress in %d/%d trials (mean steps to first meal %.1f)", progressed, res.Trials, mean)
	} else {
		res.Detail = fmt.Sprintf("no progress in %d/%d trials (first failing seed %d)",
			res.Failures, res.Trials, seed(slices.Index(steps, -1)))
	}
	return res, nil
}

// lockoutSample aggregates Monte-Carlo lockout trials: how many served every
// philosopher, the smallest Jain fairness index of the per-philosopher meal
// counts over all trials, and the seed of the first trial that left a
// philosopher unserved.
type lockoutSample struct {
	fed          stats.Proportion
	worstJain    float64
	failures     int
	firstFailing uint64
}

// sampleLockout runs the Monte-Carlo form of the lockout-freedom statement
// T_i --(F, 1)--> E_i: n trials of steps steps each, trial i seeded seed(i),
// of which a trial passes when every philosopher ate at least once. The
// statistical-lockout property and E-T4's Monte-Carlo rows share it.
func sampleLockout(ctx context.Context, e *Engine, workers, n int, steps int64, seed func(int) uint64) (lockoutSample, error) {
	type trial struct {
		fed  bool
		jain float64
	}
	trials, err := sample(ctx, e, workers, n, seed, sim.RunOptions{MaxSteps: steps}, func(_ int, _ uint64, r *SimResult) trial {
		return trial{fed: slices.Min(r.EatsBy) > 0, jain: stats.JainIndex(r.EatsBy)}
	})
	if err != nil {
		return lockoutSample{}, err
	}
	out := lockoutSample{worstJain: 1}
	for i, t := range trials {
		out.fed.Add(t.fed)
		out.worstJain = min(out.worstJain, t.jain)
		if !t.fed {
			if out.failures == 0 {
				out.firstFailing = seed(i)
			}
			out.failures++
		}
	}
	return out, nil
}

// checkStatisticalLockout samples lockout-freedom (defaults: 50 trials of
// 200,000 steps).
func checkStatisticalLockout(ctx context.Context, in PropertyInput) (PropertyResult, error) {
	e := in.Engine
	res := in.newResult(StatisticalLockout, StatisticalProperty)
	s, err := sampleLockout(ctx, e, e.cfg.workers, cmp.Or(e.cfg.trials, 50), cmp.Or(e.cfg.maxSteps, 200_000),
		strided(e.cfg.seed, statSeedStride))
	if err != nil {
		return res, err
	}
	res.Trials = int(s.fed.Trials())
	res.Failures = s.failures
	res.Passed = res.Failures == 0
	if res.Passed {
		res.Detail = fmt.Sprintf("every philosopher served in %d/%d trials (worst Jain index %.3f)",
			res.Trials, res.Trials, s.worstJain)
	} else {
		res.Detail = fmt.Sprintf("a philosopher went unserved in %d/%d trials (first failing seed %d)",
			res.Failures, res.Trials, s.firstFailing)
	}
	return res, nil
}
