// Package runtime executes generalized dining-philosopher systems as real
// concurrent Go programs: every philosopher is a goroutine, every fork is a
// mutex, and the Go scheduler plays the role of the paper's adversary. The
// goroutines run the sim.Program that the simulator, the model checker and
// trace replay run, fault wrapper included, so every algorithm option and
// fault model means the same on every executor. The simulator gives
// adversarial and reproducible interleavings; the runtime demonstrates the
// algorithms under genuine parallelism and measures their throughput (the
// "future work" dimension of the paper's Section 6).
//
// # Holds
//
// Each philosopher goroutine owns a prng stream and a view of one shared
// world (sim.World.View) and loops over holds. A hold locks the
// philosopher's two forks in fork-id order — or one global lock, for
// programs that keep shared state in World.Globals (the central-monitor and
// ticket-box baselines) — stamps the view's Step from a shared clock, and
// applies sampled outcomes until a step does not move the program counter
// forward (a busy-wait, a retry or the return to thinking) or starts a
// meal. Then it unlocks and yields. Program counters are the pseudo-code
// line numbers and every loop of the algorithms jumps back, so a hold ends
// within one pass over the program; a uint8 counter bounds it in any case.
//
// Steps are local (see sim.Program). Holds that share a fork are therefore
// ordered by their stamps — each stamps while it holds the fork's lock —
// and holds that share none commute, so a run's holds ordered by stamp are
// a path of the MDP the model checker explores: trace.Build replays them to
// the run's final state.
package runtime

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config describes a concurrent run.
type Config struct {
	// Topology is the system to run (required).
	Topology *graph.Topology
	// Program is the philosopher algorithm, possibly fault-wrapped
	// (required). It is the program the simulator and the model checker run.
	Program sim.Program
	// TargetMealsPerPhilosopher stops the run once every philosopher has
	// eaten this many times (0 = run until the context or MaxDuration ends).
	TargetMealsPerPhilosopher int64
	// MaxDuration bounds the wall-clock duration (0 = 2 seconds).
	MaxDuration time.Duration
	// Seed drives the per-philosopher random streams: philosopher p draws
	// every outcome, fault branches included, from the p-th split of
	// prng.New(Seed).
	Seed uint64

	// onHold, when non-nil, receives every hold: its clock stamp, the
	// philosopher and the indices of the outcomes it applied, in order (a
	// slice reused once the call returns). It is called from the philosopher
	// goroutines, concurrently. The conformance tests replay runs through it.
	onHold func(stamp int64, p graph.PhilID, outcomes []int)
}

// Metrics summarises a concurrent run.
type Metrics struct {
	// Meals[p] is the number of meals completed by philosopher p.
	Meals []int64
	// TotalMeals is the sum of Meals.
	TotalMeals int64
	// JainIndex is Jain's fairness index of Meals.
	JainIndex float64
	// Duration is the wall-clock duration of the run.
	Duration time.Duration
	// MealsPerSecond is the aggregate throughput.
	MealsPerSecond float64
	// Starved lists philosophers with zero meals.
	Starved []graph.PhilID
	// Crashes[p] and Rejoins[p] count how often philosopher p's Crashed flag
	// went up and down; both are nil when the program carries no fault
	// model.
	Crashes []int64
	Rejoins []int64
}

// Run executes the configured system until the target is reached, the
// duration expires, or ctx is cancelled.
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	m, _, err := run(ctx, cfg)
	return m, err
}

// run is Run returning the final shared world as well.
func run(ctx context.Context, cfg Config) (*Metrics, *sim.World, error) {
	if cfg.Topology == nil {
		return nil, nil, errors.New("runtime: Config.Topology is required")
	}
	if cfg.Program == nil {
		return nil, nil, errors.New("runtime: Config.Program is required")
	}
	maxDuration := cfg.MaxDuration
	if maxDuration <= 0 {
		maxDuration = 2 * time.Second
	}
	topo := cfg.Topology
	n := topo.NumPhilosophers()
	world := sim.NewWorld(topo)
	cfg.Program.Init(world)

	runCtx, cancel := context.WithTimeout(ctx, maxDuration)
	defer cancel()
	ex := &executor{cfg: cfg}
	ex.remaining.Store(int64(n))
	defer context.AfterFunc(runCtx, func() { ex.stop.Store(true) })()

	forks := make([]sync.Mutex, topo.NumForks())
	var global sync.Mutex
	master := prng.New(cfg.Seed)
	phils := make([]philosopher, n)
	for p := range phils {
		ph := &phils[p]
		ph.id = graph.PhilID(p)
		ph.view = world.View()
		ph.rng = master.Split()
		if len(world.Globals) > 0 {
			ph.locks[0] = &global
			continue
		}
		low, high := topo.Left(ph.id), topo.Right(ph.id)
		if low > high {
			low, high = high, low
		}
		ph.locks = [2]*sync.Mutex{&forks[low], &forks[high]}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for p := range phils {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phils[p].run(ex)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Metrics{Meals: make([]int64, n), Duration: elapsed}
	if _, faulty := cfg.Program.(interface{ FaultSpec() string }); faulty {
		out.Crashes = make([]int64, n)
		out.Rejoins = make([]int64, n)
	}
	for p := range phils {
		ph := &phils[p]
		out.Meals[p] = ph.view.TotalEats
		out.TotalMeals += ph.view.TotalEats
		if ph.view.TotalEats == 0 {
			out.Starved = append(out.Starved, ph.id)
		}
		if out.Crashes != nil {
			out.Crashes[p], out.Rejoins[p] = ph.crashes, ph.rejoins
		}
	}
	out.JainIndex = stats.JainIndex(out.Meals)
	if elapsed > 0 {
		out.MealsPerSecond = float64(out.TotalMeals) / elapsed.Seconds()
	}
	return out, world, nil
}

// executor is the state the philosopher goroutines share besides the world.
type executor struct {
	cfg Config
	// clock stamps holds; stop ends the run; remaining counts the
	// philosophers still short of the meal target.
	clock     atomic.Int64
	stop      atomic.Bool
	remaining atomic.Int64
}

// philosopher is the per-goroutine state of one philosopher.
type philosopher struct {
	id   graph.PhilID
	view *sim.World
	rng  *prng.Source
	// locks are taken in order; the second is nil under the global lock.
	locks            [2]*sync.Mutex
	crashes, rejoins int64
}

// run executes holds until the run stops.
func (ph *philosopher) run(ex *executor) {
	prog, target := ex.cfg.Program, ex.cfg.TargetMealsPerPhilosopher
	st := &ph.view.Phils[ph.id]
	var buf []sim.Outcome
	var taken []int
	for !ex.stop.Load() {
		ph.locks[0].Lock()
		if ph.locks[1] != nil {
			ph.locks[1].Lock()
		}
		stamp := ex.clock.Add(1)
		ph.view.Step = stamp
		crashed, meals := st.Crashed, ph.view.TotalEats
		for {
			pc, phase := st.PC, st.Phase
			buf = prog.Outcomes(ph.view, ph.id, buf[:0])
			o := sim.SampleOutcome(buf, ph.rng)
			o.Do(ph.view, ph.id)
			if ex.cfg.onHold != nil {
				taken = append(taken, indexOf(buf, o))
			}
			if st.PC <= pc || (st.Phase == sim.Eating && phase != sim.Eating) {
				break
			}
		}
		if ph.locks[1] != nil {
			ph.locks[1].Unlock()
		}
		ph.locks[0].Unlock()

		// A crash or a rejoin leaves the program counter at the thinking
		// line, so it always ends its hold: one flag comparison per hold
		// counts every transition.
		switch {
		case st.Crashed && !crashed:
			ph.crashes++
		case !st.Crashed && crashed:
			ph.rejoins++
		}
		if ex.cfg.onHold != nil {
			ex.cfg.onHold(stamp, ph.id, taken)
			taken = taken[:0]
		}
		if meals < target && ph.view.TotalEats >= target && ex.remaining.Add(-1) == 0 {
			ex.stop.Store(true)
		}
		runtime.Gosched()
	}
}

// indexOf returns the index of o, an element of buf.
func indexOf(buf []sim.Outcome, o *sim.Outcome) int {
	for i := range buf {
		if &buf[i] == o {
			return i
		}
	}
	panic("runtime: outcome not in its set")
}
