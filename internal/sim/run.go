package sim

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/prng"
)

// Scheduler is the paper's adversary: it observes the complete state of the
// system (it "has complete information of the past of the computation") and
// decides which philosopher executes the next atomic action. Fairness —
// every philosopher scheduled infinitely often — is a property of the
// scheduler, checked externally by the fairness monitor in package sched.
type Scheduler interface {
	// Name returns the scheduler's name for reports.
	Name() string
	// Next returns the philosopher to schedule in world w. It must return a
	// valid philosopher ID.
	Next(w *World) graph.PhilID
}

// ResettableScheduler is implemented by schedulers that can return to their
// just-constructed state in place. The trial harness verify.Trials, which
// runs every Monte-Carlo trial (only dining's single Engine.Run builds a
// fresh world and scheduler), recycles per-worker scheduler instances and
// calls Reset between trials instead of constructing a fresh scheduler;
// after Reset the scheduler's decisions must be identical to those of a
// newly constructed instance with the same configuration. Schedulers driven
// by a *prng.Source keep the pointer across Reset — the harness reseeds the
// source in place.
type ResettableScheduler interface {
	Scheduler
	// Reset restores the scheduler to its initial state.
	Reset()
}

// RunOptions configures a run of the step engine.
type RunOptions struct {
	// MaxSteps bounds the number of atomic actions; 0 means the package
	// default (DefaultMaxSteps).
	MaxSteps int64
	// StopAfterTotalEats stops the run once this many meals have completed
	// (0 = no such stop).
	StopAfterTotalEats int64
	// StopWhenAllHaveEaten stops the run once every philosopher has eaten at
	// least once.
	StopWhenAllHaveEaten bool
	// StopWhenPhilEats stops the run once the philosopher StopPhil has eaten.
	// It is a separate flag so that the zero value of RunOptions does not
	// accidentally watch philosopher 0.
	StopWhenPhilEats bool
	// StopPhil is the philosopher watched by StopWhenPhilEats.
	StopPhil graph.PhilID
	// Stop is polled every StopCheckInterval steps when non-nil; a true
	// return ends the run with reason StopCancelled. It is how context
	// cancellation reaches the step loop without threading a Context (and a
	// per-step branch) through the hot path.
	Stop func() bool
	// Recorder receives every event when non-nil.
	Recorder Recorder
	// CheckInvariants makes the engine verify World.CheckInvariants after
	// every step; intended for tests (it is O(n+k) per step).
	CheckInvariants bool
	// ValidateOutcomes makes the engine verify every outcome set before
	// sampling; intended for tests.
	ValidateOutcomes bool
}

// DefaultMaxSteps is the step bound used when RunOptions.MaxSteps is zero.
const DefaultMaxSteps = 1_000_000

// StopReason describes why a run ended.
type StopReason string

const (
	// StopMaxSteps means the step bound was reached.
	StopMaxSteps StopReason = "max-steps"
	// StopTotalEats means the requested number of meals completed.
	StopTotalEats StopReason = "total-eats"
	// StopAllAte means every philosopher ate at least once.
	StopAllAte StopReason = "all-ate"
	// StopPhilAte means the watched philosopher ate.
	StopPhilAte StopReason = "phil-ate"
	// StopCancelled means RunOptions.Stop fired (typically a cancelled
	// context).
	StopCancelled StopReason = "cancelled"
)

// StopCheckInterval is how often (in steps) RunOptions.Stop is polled.
const StopCheckInterval = 1024

// Result summarises a run.
type Result struct {
	// Algorithm, SchedulerName and Topology identify the configuration.
	Algorithm     string
	SchedulerName string
	Topology      string

	// Steps is the number of atomic actions executed.
	Steps int64
	// TotalEats is the number of completed meals.
	TotalEats int64
	// EatsBy[p] is the number of completed meals of philosopher p.
	EatsBy []int64
	// FirstEatStep is the step of the first meal, or -1 if nobody ate.
	FirstEatStep int64
	// FirstEatBy[p] is the step at which p first started eating, or -1.
	FirstEatBy []int64
	// MeanWaitSteps is the mean number of steps between becoming hungry and
	// starting to eat, over started meals (0 when nobody ate).
	MeanWaitSteps float64
	// ScheduledCount[p] is how many times p was scheduled.
	ScheduledCount []int64
	// MaxScheduleGap is the largest observed gap (in steps) between
	// consecutive schedulings of the same philosopher — a fairness witness.
	MaxScheduleGap int64
	// Starved lists philosophers that became hungry during the run and never
	// ate.
	Starved []graph.PhilID
	// Reason states why the run stopped.
	Reason StopReason
	// Final is the final world (for inspection by tests and adversaries).
	Final *World

	// lastSched and everHungry are the per-run gap/starvation scratch arrays,
	// and obuf the step loop's outcome scratch buffer, kept on the Result so
	// that RunWorldInto reuses them together with the metric slices (the
	// buffer otherwise regrows to the program's largest outcome set — m
	// entries for GDP's uniform draw — on every recycled trial).
	lastSched  []int64
	everHungry []bool
	obuf       []Outcome
}

// Progress reports whether at least one meal completed.
func (r *Result) Progress() bool { return r.TotalEats > 0 }

// Run executes the step engine: repeatedly asks the scheduler for a
// philosopher, asks the program for that philosopher's possible next actions,
// samples one according to its probability and applies it, until a stop
// condition holds.
func Run(topo *graph.Topology, prog Program, sched Scheduler, rng *prng.Source, opts RunOptions) (*Result, error) {
	if topo == nil || prog == nil || sched == nil || rng == nil {
		return nil, errors.New("sim: Run requires topology, program, scheduler and rng")
	}
	w := NewWorld(topo)
	w.SetRecorder(opts.Recorder)
	prog.Init(w)
	return RunWorld(w, prog, sched, rng, opts)
}

// RunWorld is like Run but starts from an existing world (which must have been
// initialised for prog). It allows adversaries and tests to resume from
// prepared states.
func RunWorld(w *World, prog Program, sched Scheduler, rng *prng.Source, opts RunOptions) (*Result, error) {
	res := &Result{}
	if err := RunWorldInto(res, w, prog, sched, rng, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// RunWorldInto is RunWorld writing its summary into *res instead of
// allocating one: every field is overwritten and the metric slices (EatsBy,
// FirstEatBy, ScheduledCount, Starved) and per-run scratch arrays are reused
// in place, so a caller that recycles the Result across runs — the
// Monte-Carlo trial harness verify.Trials — aggregates trials without any
// per-trial Result allocations. The reused slices are overwritten by the next
// run; copy them if retained.
func RunWorldInto(res *Result, w *World, prog Program, sched Scheduler, rng *prng.Source, opts RunOptions) error {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	if opts.Recorder != nil {
		w.SetRecorder(opts.Recorder)
	}
	w.EnsureMetrics()

	n := len(w.Phils)
	lastScheduled := res.lastSched[:0]
	everHungry := res.everHungry[:0]
	for i := 0; i < n; i++ {
		lastScheduled = append(lastScheduled, -1)
		everHungry = append(everHungry, false)
	}
	res.lastSched, res.everHungry = lastScheduled, everHungry
	var maxGap int64

	reason := StopMaxSteps
	start := w.Step
	// Scratch outcome buffer reused across steps (and, through the Result,
	// across recycled runs) so that the engine's hot loop allocates nothing
	// in steady state.
	obuf := res.obuf
	for w.Step-start < maxSteps {
		if opts.Stop != nil && (w.Step-start)%StopCheckInterval == 0 && opts.Stop() {
			reason = StopCancelled
			break
		}
		p := sched.Next(w)
		if int(p) < 0 || int(p) >= n {
			return fmt.Errorf("sim: scheduler %q returned invalid philosopher %d", sched.Name(), p)
		}
		w.emit(EventScheduled, p, graph.NoFork, 0)
		if gap := w.Step - lastScheduled[p]; lastScheduled[p] >= 0 && gap > maxGap {
			maxGap = gap
		}
		lastScheduled[p] = w.Step
		w.ScheduledCount[p]++
		w.LastScheduled[p] = w.Step

		outcomes := prog.Outcomes(w, p, obuf[:0])
		obuf = outcomes
		if opts.ValidateOutcomes {
			if err := ValidateOutcomes(outcomes); err != nil {
				return fmt.Errorf("sim: %s outcomes for P%d at step %d: %w", prog.Name(), p, w.Step, err)
			}
		}
		SampleOutcome(outcomes, rng).Do(w, p)
		if w.Phils[p].Phase == Hungry {
			everHungry[p] = true
		}
		w.Step++

		if opts.CheckInvariants {
			if err := w.CheckInvariants(); err != nil {
				return fmt.Errorf("sim: invariant violated after step %d of %s: %w", w.Step, prog.Name(), err)
			}
		}

		if opts.StopAfterTotalEats > 0 && w.TotalEats >= opts.StopAfterTotalEats {
			reason = StopTotalEats
			break
		}
		if opts.StopWhenPhilEats && opts.StopPhil >= 0 &&
			int(opts.StopPhil) < n && w.EatsBy[opts.StopPhil] > 0 {
			reason = StopPhilAte
			break
		}
		if opts.StopWhenAllHaveEaten && allPositive(w.EatsBy) {
			reason = StopAllAte
			break
		}
	}

	res.obuf = obuf[:0]

	// Account for the trailing gap of each philosopher (including philosophers
	// never scheduled at all), so that a scheduler that ignores somebody shows
	// up as unfair.
	for p := 0; p < n; p++ {
		var gap int64
		if lastScheduled[p] < 0 {
			gap = w.Step - start
		} else {
			gap = w.Step - lastScheduled[p]
		}
		if gap > maxGap {
			maxGap = gap
		}
	}

	res.Algorithm = prog.Name()
	res.SchedulerName = sched.Name()
	res.Topology = w.Topo.Name()
	res.Steps = w.Step - start
	res.TotalEats = w.TotalEats
	res.EatsBy = append(res.EatsBy[:0], w.EatsBy...)
	res.FirstEatStep = w.FirstEatStep
	res.FirstEatBy = append(res.FirstEatBy[:0], w.FirstEatBy...)
	res.ScheduledCount = append(res.ScheduledCount[:0], w.ScheduledCount...)
	res.MaxScheduleGap = maxGap
	res.Reason = reason
	res.Final = w
	res.MeanWaitSteps = 0
	if started := countStartedMeals(w); started > 0 {
		res.MeanWaitSteps = float64(w.TotalWait) / float64(started)
	}
	res.Starved = res.Starved[:0]
	for p := 0; p < n; p++ {
		if everHungry[p] && w.EatsBy[p] == 0 && w.FirstEatBy[p] < 0 {
			res.Starved = append(res.Starved, graph.PhilID(p))
		}
	}
	return nil
}

// countStartedMeals returns the number of meals whose waiting time has been
// accumulated into TotalWait (meals that started).
func countStartedMeals(w *World) int64 {
	// A meal's wait is added exactly when it starts; completed meals plus the
	// currently eating philosophers all started.
	started := w.TotalEats
	for p := range w.Phils {
		if w.Phils[p].Phase == Eating {
			started++
		}
	}
	return started
}

func allPositive(xs []int64) bool {
	for _, x := range xs {
		if x <= 0 {
			return false
		}
	}
	return true
}
