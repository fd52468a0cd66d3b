// Package runtime executes generalized dining-philosopher systems as real
// concurrent Go programs: every philosopher is a goroutine, every fork is a
// mutex-protected shared object, and the Go scheduler plays the role of the
// paper's adversary. It complements the controlled step simulator (package
// sim): the simulator gives adversarial and reproducible interleavings, the
// runtime demonstrates the algorithms under genuine parallelism and provides
// the throughput numbers for the efficiency benchmarks (the "future work"
// dimension of the paper's Section 6).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Algorithm selects the philosopher protocol run by the goroutines.
type Algorithm string

// The available concurrent algorithms, named as in the algorithm registry.
const (
	// LR1 is Lehmann & Rabin's free-choice algorithm (Table 1).
	LR1 Algorithm = "LR1"
	// LR2 is the courteous variant with request lists and guest books
	// (Table 2).
	LR2 Algorithm = "LR2"
	// GDP1 is the paper's random fork-numbering algorithm (Table 3).
	GDP1 Algorithm = "GDP1"
	// GDP2 is the lockout-free variant (Table 4).
	GDP2 Algorithm = "GDP2"
	// OrderedForks is the hierarchical (lower fork first, hold and wait)
	// baseline.
	OrderedForks Algorithm = "ordered-forks"
)

// Algorithms lists every concurrent algorithm.
func Algorithms() []Algorithm { return []Algorithm{LR1, LR2, GDP1, GDP2, OrderedForks} }

// fork is a shared fork protected by a mutex. All fields are accessed under
// mu, mirroring the paper's assumption that test-and-set operations on forks
// are atomic.
type fork struct {
	mu     sync.Mutex
	holder int // philosopher ID + 1; 0 when free
	nr     int
	// req and used are indexed by adjacency slot (graph.Topology.Slot).
	req  []bool
	used []int64
}

// tryTake atomically takes the fork for philosopher p if it is free and cond
// holds (cond is evaluated under the fork's lock). It returns true on
// success.
func (f *fork) tryTake(p int, cond func(f *fork) bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.holder != 0 {
		return false
	}
	if cond != nil && !cond(f) {
		return false
	}
	f.holder = p + 1
	return true
}

// release frees the fork; it panics if p does not hold it (an algorithm bug).
func (f *fork) release(p int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.holder != p+1 {
		panic(fmt.Sprintf("runtime: philosopher %d releasing fork held by %d", p, f.holder-1))
	}
	f.holder = 0
}

// Config describes a concurrent run.
type Config struct {
	// Topology is the system to run (required).
	Topology *graph.Topology
	// Algorithm selects the protocol (required).
	Algorithm Algorithm
	// M is the upper bound of the random fork numbers for GDP1/GDP2; 0 means
	// the number of forks.
	M int
	// TargetMealsPerPhilosopher stops the run once every philosopher has
	// eaten this many times (0 = run until the context or MaxDuration ends).
	TargetMealsPerPhilosopher int64
	// MaxDuration bounds the wall-clock duration (0 = 2 seconds).
	MaxDuration time.Duration
	// ThinkTime and EatTime simulate work; zero means a bare Gosched.
	ThinkTime time.Duration
	EatTime   time.Duration
	// Seed drives the per-philosopher random sources.
	Seed uint64
	// Faults optionally names a crash-family fault model to inject, using the
	// fault-spec grammar ("crash-rejoin:0.05,0.5@1,3", "freeze:0.1"). Crash
	// decisions are taken at think→try cycle boundaries from dedicated
	// per-philosopher prng streams, so the i-th decision of philosopher p is
	// determined by (Seed, p, i) and the algorithm streams stay bit-identical
	// to a fault-free run. Message-level models (lossy-grants, delayed-grants)
	// have no goroutine equivalent and are rejected; see SupportsFault.
	Faults string
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
	// Crashes[p] and Rejoins[p] count the fault decisions taken against
	// philosopher p; both are nil when Config.Faults is empty.
	Crashes []int64
	Rejoins []int64
}

// Run executes the configured system until the target is reached, the
// duration expires, or ctx is cancelled.
func Run(ctx context.Context, cfg Config) (*Metrics, error) {
	if cfg.Topology == nil {
		return nil, errors.New("runtime: Config.Topology is required")
	}
	switch cfg.Algorithm {
	case LR1, LR2, GDP1, GDP2, OrderedForks:
	default:
		return nil, fmt.Errorf("runtime: algorithm %q has no concurrent runtime implementation (available: %v)", cfg.Algorithm, Algorithms())
	}
	maxDuration := cfg.MaxDuration
	if maxDuration <= 0 {
		maxDuration = 2 * time.Second
	}
	m := cfg.M
	if m < cfg.Topology.NumForks() {
		m = cfg.Topology.NumForks()
	}
	var fd *faultDriver
	if cfg.Faults != "" {
		var err error
		if fd, err = newFaultDriver(cfg.Faults, cfg.Topology); err != nil {
			return nil, err
		}
	}

	topo := cfg.Topology
	n := topo.NumPhilosophers()
	forks := make([]*fork, topo.NumForks())
	for i := range forks {
		deg := topo.Degree(graph.ForkID(i))
		forks[i] = &fork{
			req:  make([]bool, deg),
			used: make([]int64, deg),
		}
		for s := range forks[i].used {
			forks[i].used[s] = -1
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, maxDuration)
	defer cancel()

	meals := make([]int64, n)
	var totalMeals atomic.Int64
	var clock atomic.Int64 // logical clock for guest-book ordering
	done := func() bool {
		select {
		case <-runCtx.Done():
			return true
		default:
		}
		if cfg.TargetMealsPerPhilosopher > 0 {
			for p := 0; p < n; p++ {
				if atomic.LoadInt64(&meals[p]) < cfg.TargetMealsPerPhilosopher {
					return false
				}
			}
			return true
		}
		return false
	}

	var wg sync.WaitGroup
	start := time.Now()
	// The algorithm streams are split first, in philosopher order, so a
	// faulted run hands each goroutine the same algorithm stream as the
	// fault-free run of the same seed; the fault streams come after.
	master := prng.New(cfg.Seed)
	algRngs := make([]*prng.Source, n)
	for p := range algRngs {
		algRngs[p] = master.Split()
	}
	faultRngs := make([]*prng.Source, n)
	if fd != nil {
		for p := range faultRngs {
			faultRngs[p] = master.Split()
		}
	}
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ph := &philosopher{
				id:     p,
				topo:   topo,
				forks:  forks,
				rng:    algRngs[p],
				m:      m,
				cfg:    cfg,
				clock:  &clock,
				done:   done,
				record: func() { atomic.AddInt64(&meals[p], 1); totalMeals.Add(1) },
				fd:     fd,
				frng:   faultRngs[p],
			}
			ph.run(cfg.Algorithm)
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Metrics{
		Meals:      meals,
		TotalMeals: totalMeals.Load(),
		JainIndex:  stats.JainIndex(meals),
		Duration:   elapsed,
	}
	if elapsed > 0 {
		out.MealsPerSecond = float64(out.TotalMeals) / elapsed.Seconds()
	}
	for p, c := range meals {
		if c == 0 {
			out.Starved = append(out.Starved, graph.PhilID(p))
		}
	}
	if fd != nil {
		out.Crashes = fd.crashes
		out.Rejoins = fd.rejoins
	}
	return out, nil
}

// philosopher is the per-goroutine state of one philosopher.
type philosopher struct {
	id     int
	topo   *graph.Topology
	forks  []*fork
	rng    *prng.Source
	m      int
	cfg    Config
	clock  *atomic.Int64
	done   func() bool
	record func()
	fd     *faultDriver // nil without fault injection
	frng   *prng.Source // dedicated fault-decision stream
}

func (ph *philosopher) left() *fork  { return ph.forks[ph.topo.Left(graph.PhilID(ph.id))] }
func (ph *philosopher) right() *fork { return ph.forks[ph.topo.Right(graph.PhilID(ph.id))] }
func (ph *philosopher) slot(f *fork) int {
	for i, candidate := range ph.forks {
		if candidate == f {
			return ph.topo.Slot(graph.ForkID(i), graph.PhilID(ph.id))
		}
	}
	panic("runtime: slot of unknown fork")
}

func (ph *philosopher) pause(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	<-timer.C
}

func (ph *philosopher) think() { ph.pause(ph.cfg.ThinkTime) }
func (ph *philosopher) eat() {
	ph.pause(ph.cfg.EatTime)
	ph.record()
}

// cond evaluates the courtesy condition of LR2/GDP2 for this philosopher on
// fork f (must be called under f.mu, which fork.tryTake guarantees).
func (ph *philosopher) cond(f *fork) bool {
	my := ph.slot(f)
	mine := f.used[my]
	for s, requested := range f.req {
		if !requested || s == my {
			continue
		}
		if f.used[s] < mine {
			return false
		}
	}
	return true
}

func (ph *philosopher) setRequest(f *fork, v bool) {
	f.mu.Lock()
	f.req[ph.slot(f)] = v
	f.mu.Unlock()
}

func (ph *philosopher) signGuestBook(f *fork) {
	f.mu.Lock()
	f.used[ph.slot(f)] = ph.clock.Add(1)
	f.mu.Unlock()
}

func (ph *philosopher) nrOf(f *fork) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nr
}

// renumberIfTied implements the GDP step "if fork.nr = other(fork).nr then
// fork.nr := random[1, m]" on the held fork.
func (ph *philosopher) renumberIfTied(held, other *fork) {
	otherNR := ph.nrOf(other)
	held.mu.Lock()
	if held.nr == otherNR {
		held.nr = ph.rng.IntRange(1, ph.m)
	}
	held.mu.Unlock()
}

// run executes the selected algorithm until done() reports true. The fault
// decision happens at the cycle boundary, where the philosopher holds no
// forks and has no pending requests — the goroutine analogue of
// sim.World.Crash leaving the protocol state consistent.
func (ph *philosopher) run(alg Algorithm) {
	for !ph.done() {
		if ph.fd != nil && ph.fd.cycle(ph) {
			continue
		}
		ph.think()
		switch alg {
		case LR1:
			ph.lehmannRabin(false)
		case LR2:
			ph.lehmannRabin(true)
		case GDP1:
			ph.gdp(false)
		case GDP2:
			ph.gdp(true)
		case OrderedForks:
			ph.ordered()
		}
	}
}

// lehmannRabin is the trying-section of LR1 (courteous = false) and LR2
// (courteous = true).
func (ph *philosopher) lehmannRabin(courteous bool) {
	left, right := ph.left(), ph.right()
	if courteous {
		ph.setRequest(left, true)
		ph.setRequest(right, true)
		defer func() {
			ph.setRequest(left, false)
			ph.setRequest(right, false)
		}()
	}
	for !ph.done() {
		first, second := left, right
		if !ph.rng.Bool(0.5) {
			first, second = right, left
		}
		var firstCond func(*fork) bool
		if courteous {
			firstCond = ph.cond
		}
		// Line 3/4: busy-wait for the first fork.
		for !first.tryTake(ph.id, firstCond) {
			if ph.done() {
				return
			}
			runtime.Gosched()
		}
		// Line 4/5: one attempt at the second fork.
		if second.tryTake(ph.id, nil) {
			ph.eat()
			if courteous {
				ph.setRequest(left, false)
				ph.setRequest(right, false)
				ph.signGuestBook(left)
				ph.signGuestBook(right)
			}
			first.release(ph.id)
			second.release(ph.id)
			return
		}
		first.release(ph.id)
		runtime.Gosched()
	}
}

// gdp is the trying-section of GDP1 (courteous = false) and GDP2
// (courteous = true).
func (ph *philosopher) gdp(courteous bool) {
	left, right := ph.left(), ph.right()
	if courteous {
		ph.setRequest(left, true)
		ph.setRequest(right, true)
		defer func() {
			ph.setRequest(left, false)
			ph.setRequest(right, false)
		}()
	}
	for !ph.done() {
		first, second := left, right
		if ph.nrOf(left) <= ph.nrOf(right) {
			first, second = right, left
		}
		var firstCond func(*fork) bool
		if courteous {
			firstCond = ph.cond
		}
		for !first.tryTake(ph.id, firstCond) {
			if ph.done() {
				return
			}
			runtime.Gosched()
		}
		ph.renumberIfTied(first, second)
		if second.tryTake(ph.id, nil) {
			ph.eat()
			if courteous {
				ph.setRequest(left, false)
				ph.setRequest(right, false)
				ph.signGuestBook(left)
				ph.signGuestBook(right)
			}
			first.release(ph.id)
			second.release(ph.id)
			return
		}
		first.release(ph.id)
		runtime.Gosched()
	}
}

// ordered is the hierarchical baseline: lower fork first, hold and wait.
func (ph *philosopher) ordered() {
	lowID, highID := ph.topo.Left(graph.PhilID(ph.id)), ph.topo.Right(graph.PhilID(ph.id))
	if lowID > highID {
		lowID, highID = highID, lowID
	}
	low, high := ph.forks[lowID], ph.forks[highID]
	for !low.tryTake(ph.id, nil) {
		if ph.done() {
			return
		}
		runtime.Gosched()
	}
	for !high.tryTake(ph.id, nil) {
		if ph.done() {
			low.release(ph.id)
			return
		}
		runtime.Gosched()
	}
	ph.eat()
	low.release(ph.id)
	high.release(ph.id)
}
