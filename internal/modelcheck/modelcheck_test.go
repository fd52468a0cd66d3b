package modelcheck

import (
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/graphalg/graphalgtest"
	"repro/internal/sim"
	"repro/internal/trace"
)

func mustProg(t *testing.T, name string, opts algo.Options) sim.Program {
	t.Helper()
	prog, err := algo.New(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runCheck explores algoName on topo against the protected set; the instance
// must fit without truncation.
func runCheck(t *testing.T, topo *graph.Topology, algoName string, opts algo.Options, protected []graph.PhilID) *StateSpace {
	t.Helper()
	ss, err := Explore(topo, mustProg(t, algoName, opts), Options{Protected: protected})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Truncated {
		t.Fatalf("%s on %s: exploration truncated; the instance is supposed to fit", algoName, topo.Name())
	}
	return ss
}

// fairAdversaryWins is the headline verdict: a fair adversary can, with
// positive probability, starve the protected set forever.
func fairAdversaryWins(ss *StateSpace) bool {
	trap := ss.FindStarvationTrap()
	return trap.Exists && trap.Reachable
}

func TestExploreBasicProperties(t *testing.T) {
	t.Parallel()
	ss, err := Explore(graph.Ring(3), mustProg(t, "LR1", algo.Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumStates() == 0 || ss.NumTransitions() == 0 {
		t.Fatal("empty state space")
	}
	if ss.NumTransitions() != ss.NumStates()*3 {
		t.Errorf("expected 3 actions per state, got %d transitions for %d states", ss.NumTransitions(), ss.NumStates())
	}
	if !slices.Contains(ss.bad, true) {
		t.Error("the ring has reachable eating states")
	}
	reach := graphalgtest.Reachable(ss)
	count := 0
	for _, r := range reach {
		if r {
			count++
		}
	}
	if count != ss.NumStates() {
		t.Errorf("only %d/%d states reachable; exploration should only produce reachable states", count, ss.NumStates())
	}
}

func TestExploreRejectsNilArguments(t *testing.T) {
	t.Parallel()
	if _, err := Explore(nil, mustProg(t, "LR1", algo.Options{}), Options{}); err == nil {
		t.Error("Explore accepted nil topology")
	}
	if _, err := Explore(graph.Ring(3), nil, Options{}); err == nil {
		t.Error("Explore accepted nil program")
	}
}

// flakyProgram breaks the Program contract that equal protocol states
// produce identical outcome sets: it returns one outcome and two on
// alternate calls, whatever the world — as a program registered through
// dining.RegisterAlgorithm might if it read a clock or a counter.
type flakyProgram struct{ calls atomic.Int64 }

func (*flakyProgram) Name() string              { return "flaky" }
func (*flakyProgram) Init(*sim.World)           {}
func (*flakyProgram) Symmetric() bool           { return true }
func flakyStay(*sim.World, graph.PhilID, int64) {}
func (p *flakyProgram) Outcomes(_ *sim.World, _ graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	if p.calls.Add(1)%2 == 0 {
		return append(buf, sim.Outcome{Prob: 0.5, Label: "stay", Apply: flakyStay}, sim.Outcome{Prob: 0.5, Label: "stay too", Apply: flakyStay})
	}
	return append(buf, sim.Outcome{Prob: 1, Label: "stay", Apply: flakyStay})
}

// TestExploreRejectsUnstableOutcomeSets trips the explorer's guard on
// outcome sets that change between equal worlds, in expandChunk run inline
// at one worker and on goroutines at two.
func TestExploreRejectsUnstableOutcomeSets(t *testing.T) {
	t.Parallel()
	for _, opts := range []Options{{Workers: 1, Shards: 1}, {Workers: 2}} {
		_, err := Explore(graph.Ring(3), &flakyProgram{}, opts)
		if err == nil || !strings.Contains(err.Error(), "flaky produced unstable outcome sets for P0") {
			t.Errorf("workers %d, shards %d: err = %v, want the unstable outcome sets error", opts.Workers, opts.Shards, err)
		}
	}
}

// countingProgram counts the Outcomes calls made on the program it wraps,
// per (state key, philosopher).
type countingProgram struct {
	sim.Program
	mu    sync.Mutex
	calls map[string]int
}

func (p *countingProgram) Outcomes(w *sim.World, pid graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	key := string(append(w.AppendKey(nil), byte(pid)))
	p.mu.Lock()
	p.calls[key]++
	p.mu.Unlock()
	return p.Program.Outcomes(w, pid, buf)
}

// TestExploreOutcomeGuardIsLinear pins the cost of the guard against
// unstable outcome sets: an action is asked for its outcome set by the
// parent and by the clone of its first outcome, however many outcomes it
// has, so no (state, philosopher) sees more than two Outcomes calls at any
// worker count. GDP2 with m = 64 draws from 64 outcomes, where a guard that
// re-asked every clone would make 65 calls.
//
// It also pins the work of a capped exploration: at one worker it expands
// exactly the states it keeps expanded, two Outcomes calls per (state,
// philosopher), and at two workers each chunk stops at the room the cap
// leaves its level, so the states expanded and thrown away by the cut cost
// at most as many calls again. Under a cap of 300 the one-worker run
// expands 54 states (324 calls); expanding the whole last level at two
// workers made 1,470.
func TestExploreOutcomeGuardIsLinear(t *testing.T) {
	t.Parallel()
	for _, opts := range []Options{{Workers: 1, Shards: 1, MaxStates: 3000}, {Workers: 2, MaxStates: 3000}} {
		prog := &countingProgram{Program: mustProg(t, "GDP2", algo.Options{M: 64}), calls: map[string]int{}}
		ss, err := Explore(graph.Ring(3), prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for s := range ss.NumStates() {
			for a := range ss.NumPhils {
				widest = max(widest, len(graphalg.Succs(ss, s, a)))
			}
		}
		if widest != 64 {
			t.Fatalf("workers %d: widest action has %d outcomes, want the 64 of a draw", opts.Workers, widest)
		}
		for key, n := range prog.calls {
			if n > 2 {
				t.Fatalf("workers %d: P%d asked %d times for one outcome set, want at most 2", opts.Workers, key[len(key)-1], n)
			}
		}
	}

	for _, workers := range []int{1, 2} {
		prog := &countingProgram{Program: mustProg(t, "GDP2", algo.Options{M: 64}), calls: map[string]int{}}
		ss, err := Explore(graph.Ring(3), prog, Options{Workers: workers, MaxStates: 300})
		if err != nil {
			t.Fatal(err)
		}
		expanded, calls := 0, 0
		for _, ok := range ss.expanded {
			if ok {
				expanded++
			}
		}
		for _, n := range prog.calls {
			calls += n
		}
		kept := 2 * ss.NumPhils * expanded
		t.Logf("workers %d, cap 300: %d states, %d expanded, %d Outcomes calls", workers, ss.NumStates(), expanded, calls)
		if workers == 1 && calls != kept {
			t.Errorf("workers 1: %d Outcomes calls for %d expanded states, want exactly %d", calls, expanded, kept)
		}
		if calls > 2*kept {
			t.Errorf("workers %d: %d Outcomes calls for %d expanded states, want at most %d", workers, calls, expanded, 2*kept)
		}
	}
}

func TestExploreTruncation(t *testing.T) {
	t.Parallel()
	ss, err := Explore(graph.Ring(4), mustProg(t, "LR1", algo.Options{}), Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !ss.Truncated {
		t.Error("exploration with MaxStates 50 should truncate on Ring(4)")
	}
	// Truncated explorations must not fabricate violations out of unexpanded
	// states: the unexpanded frontier carries artificial self-loops, which
	// must not read as traps, deadlocks or dead regions. LR1 on Ring(4) has
	// none of the three.
	trap := ss.FindStarvationTrap()
	_ = trap
	if dead := ss.DeadlockStates(); len(dead) != 0 {
		t.Errorf("truncation fabricated %d deadlock states for LR1, which never wedges", len(dead))
	}
	if dead := ss.DeadRegionStates(); len(dead) != 0 {
		t.Errorf("truncation fabricated %d dead-region states for LR1, which always keeps meals reachable", len(dead))
	}
}

func TestNoDeadlocksForPaperAlgorithms(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"LR1", "LR2", "GDP1", "GDP2"} {
		ss := runCheck(t, graph.Theorem2Minimal(), name, algo.Options{}, nil)
		if dead := len(ss.DeadlockStates()); dead != 0 {
			t.Errorf("%s: %d deadlock states on the theta graph; the paper's algorithms never wedge", name, dead)
		}
		if dead := len(ss.DeadRegionStates()); dead != 0 {
			t.Errorf("%s: %d states with no reachable meal", name, dead)
		}
	}
}

func TestLR1NoTrapOnClassicRing(t *testing.T) {
	t.Parallel()
	// Lehmann & Rabin's original theorem: LR1 guarantees progress with
	// probability 1 on the simple ring, so no fair adversary has a starvation
	// trap against global progress.
	ss := runCheck(t, graph.Ring(3), "LR1", algo.Options{}, nil)
	if fairAdversaryWins(ss) {
		t.Errorf("found a global-progress trap for LR1 on the classic ring")
	}
}

func TestTheorem1LR1TrapOnRingWithExtraArc(t *testing.T) {
	t.Parallel()
	// Theorem 1: as soon as a ring fork is shared by an additional
	// philosopher, a fair adversary can prevent the ring philosophers from
	// ever eating. The minimal instance is a triangle plus one parallel arc.
	ring := []graph.PhilID{0, 1, 2}
	ss := runCheck(t, graph.Theorem1Minimal(), "LR1", algo.Options{}, ring)
	if !fairAdversaryWins(ss) {
		t.Errorf("Theorem 1: expected a starvation trap for LR1 on %s", graph.Theorem1Minimal().Name())
	}
	// The same holds on the ring-with-pendant form, where the extra arc leads
	// to a private fork.
	ss2 := runCheck(t, graph.RingWithPendant(3), "LR1", algo.Options{}, ring)
	if !fairAdversaryWins(ss2) {
		t.Errorf("Theorem 1: expected a starvation trap for LR1 on %s", graph.RingWithPendant(3).Name())
	}
	// And LR1 even fails for global progress there (protect everyone).
	ss3 := runCheck(t, graph.Theorem1Minimal(), "LR1", algo.Options{}, nil)
	if !fairAdversaryWins(ss3) {
		t.Errorf("expected a global-progress trap for LR1 on theorem1-minimal")
	}
}

func TestTheorem2LR2TrapOnThetaGraph(t *testing.T) {
	t.Parallel()
	// Theorem 2: with two forks joined by three internally disjoint paths a
	// fair adversary defeats LR2 (and LR1) — here even for global progress.
	for _, name := range []string{"LR1", "LR2"} {
		ss := runCheck(t, graph.Theorem2Minimal(), name, algo.Options{}, nil)
		if !fairAdversaryWins(ss) {
			t.Errorf("Theorem 2: expected a starvation trap for %s on the theta graph", name)
		}
	}
}

func TestLR2SurvivesWhereOnlyTheorem1Applies(t *testing.T) {
	if testing.Short() {
		t.Skip("large LR2 state space skipped in -short mode")
	}
	t.Parallel()
	// The paper notes that the Theorem 1 construction does not defeat LR2:
	// once the extra philosopher has eaten, the guest book stops it from
	// retaking the shared fork before the ring philosophers eat. On the
	// ring-with-pendant topology (which has the Theorem 1 structure but not
	// the Theorem 2 structure) LR2 has no starvation trap against the ring.
	ring := []graph.PhilID{0, 1, 2}
	ss := runCheck(t, graph.RingWithPendant(3), "LR2", algo.Options{}, ring)
	if fairAdversaryWins(ss) {
		t.Errorf("LR2 should not be defeatable on ring-with-pendant (no Theorem 2 structure)")
	}
}

func TestTheorem3GDP1NoProgressTrap(t *testing.T) {
	t.Parallel()
	// Theorem 3: GDP1 guarantees progress (someone eats) with probability 1
	// under every fair adversary, on every topology. Verified exhaustively on
	// the minimal counterexample topologies that defeat LR1/LR2.
	for _, topo := range []*graph.Topology{graph.Theorem2Minimal(), graph.Theorem1Minimal(), graph.Ring(3)} {
		ss := runCheck(t, topo, "GDP1", algo.Options{}, nil)
		if fairAdversaryWins(ss) {
			t.Errorf("Theorem 3: found a global-progress trap for GDP1 on %s", topo.Name())
		}
	}
}

func TestGDP1IsNotLockoutFree(t *testing.T) {
	t.Parallel()
	// The paper's Section 5 motivation: GDP1 ensures progress but not
	// lockout-freedom — a fair adversary can starve an individual philosopher.
	ss := runCheck(t, graph.Theorem2Minimal(), "GDP1", algo.Options{}, []graph.PhilID{0})
	if !fairAdversaryWins(ss) {
		t.Errorf("expected an individual-starvation trap for GDP1 (it is not lockout-free)")
	}
}

func TestTheorem4GDP2LockoutFreedomOnTheta(t *testing.T) {
	t.Parallel()
	// Theorem 4 on the minimal generalized instance: no fair adversary can
	// starve an individual GDP2 philosopher on the theta graph.
	ss := runCheck(t, graph.Theorem2Minimal(), "GDP2", algo.Options{}, []graph.PhilID{0})
	if fairAdversaryWins(ss) {
		t.Errorf("Theorem 4: found an individual-starvation trap for GDP2 on the theta graph")
	}
}

func TestGDP2FirstForkCourtesyGapOnClassicRing(t *testing.T) {
	if testing.Short() {
		t.Skip("large GDP2 state space skipped in -short mode")
	}
	t.Parallel()
	// Reproduction finding: reading Tables 2/4 literally, the courtesy test
	// Cond(fork) guards only the FIRST fork acquisition. On the classic ring
	// a fair adversary can then starve an individual GDP2 philosopher by
	// steering the fork numbers so that both neighbours always acquire their
	// shared fork with the victim as their *second* fork, which is never
	// courtesy-checked. Extending the courtesy test to both acquisitions
	// removes the trap. Experiment E-T4 of the suite (dpbench -experiment
	// E-T4) discusses the discrepancy with the paper's Theorem 4.
	victim := []graph.PhilID{0}

	asPrinted := runCheck(t, graph.Ring(3), "GDP2", algo.Options{}, victim)
	if !fairAdversaryWins(asPrinted) {
		t.Errorf("expected the first-fork-only courtesy reading of GDP2 to admit an individual-starvation trap on Ring(3)")
	}

	strengthened := runCheck(t, graph.Ring(3), "GDP2", algo.Options{CourtesyOnBothForks: true}, victim)
	if fairAdversaryWins(strengthened) {
		t.Errorf("GDP2 with courtesy on both forks should have no individual-starvation trap on Ring(3)")
	}
}

func TestLR2LockoutFreeOnClassicRing(t *testing.T) {
	t.Parallel()
	// Lehmann & Rabin's second algorithm is lockout-free on the classic ring;
	// LR1 is not (it only guarantees progress).
	lr2 := runCheck(t, graph.Ring(3), "LR2", algo.Options{}, []graph.PhilID{0})
	if fairAdversaryWins(lr2) {
		t.Errorf("LR2 should be lockout-free on the classic ring")
	}
	lr1 := runCheck(t, graph.Ring(3), "LR1", algo.Options{}, []graph.PhilID{0})
	if !fairAdversaryWins(lr1) {
		t.Errorf("LR1 is not lockout-free even on the classic ring; expected an individual trap")
	}
}

func TestPathToFindsReplayableCounterexamples(t *testing.T) {
	t.Parallel()
	// The naive hold-and-wait baseline deadlocks on the ring; the path to the
	// deadlock state must replay to exactly that state.
	prog := mustProg(t, "naive-left-first", algo.Options{})
	ss, err := Explore(graph.Ring(3), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if p := ss.memoPath(ss.initial); !p.ok || len(p.choices) != 0 {
		t.Errorf("memoPath(initial) = %v, %v; want an empty path", p.choices, p.ok)
	}
	if ss.memoPath(ss.NumStates()).ok {
		t.Error("memoPath accepted an out-of-range state")
	}

	dead := ss.DeadlockStates()
	if len(dead) == 0 {
		t.Fatal("expected a deadlock state for the naive baseline on Ring(3)")
	}
	p := ss.memoPath(dead[0])
	path, ok := p.choices, p.ok
	if !ok {
		t.Fatal("deadlock state unreachable; DeadlockStates only returns reachable states")
	}
	if len(path) == 0 {
		t.Fatal("the deadlock is not the initial state; expected a non-empty path")
	}

	cx, err := ss.CounterexampleTo("deadlock-freedom", dead[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cx.Steps) != len(path) {
		t.Errorf("trace has %d steps, path has %d choices", len(cx.Steps), len(path))
	}
	for i, s := range cx.Steps {
		if s.Label == "" {
			t.Errorf("step %d missing its outcome label", i)
		}
	}
	if cx.FinalKey != hex.EncodeToString([]byte(denseKeys(ss)[dead[0]])) {
		t.Errorf("trace final key %s does not match the target state's canonical key", cx.FinalKey)
	}
	w, err := trace.Replay(graph.Ring(3), prog, cx)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if w == nil {
		t.Fatal("replay returned no world")
	}

	// A tampered trace must be rejected.
	bad := *cx
	bad.FinalKey = "00"
	if _, err := trace.Replay(graph.Ring(3), prog, &bad); err == nil {
		t.Error("Replay accepted a trace with a corrupted final key")
	}
}

func TestFindStarvationTrapAgainstMatchesConfiguredSet(t *testing.T) {
	t.Parallel()
	// Re-running the trap analysis against an explicit protected set via the
	// eating bitmasks must agree with an exploration configured with that
	// protected set — same trap size, same safe region.
	prog := mustProg(t, "GDP1", algo.Options{})
	ss, err := Explore(graph.Theorem2Minimal(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	configured, err := Explore(graph.Theorem2Minimal(), prog, Options{Protected: []graph.PhilID{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := configured.FindStarvationTrap()
	got, err := ss.FindStarvationTrapAgainst([]graph.PhilID{0})
	if err != nil {
		t.Fatal(err)
	}
	if got.Exists != want.Exists || got.States != want.States || got.SafeRegionStates != want.SafeRegionStates {
		t.Errorf("trap against {0}: got %+v, want %+v", got, want)
	}
	if !got.Exists || got.WitnessState < 0 {
		t.Errorf("GDP1 is not lockout-free on the theta graph; expected a trap with a witness state, got %+v", got)
	}

	// The empty set means everyone — equivalent to the default analysis.
	// Asked of the space configured with {0}, the eating bitmasks answer it;
	// on ss it would share FindStarvationTrap's memoized trap.
	all, err := configured.FindStarvationTrapAgainst(nil)
	if err != nil {
		t.Fatal(err)
	}
	def := ss.FindStarvationTrap()
	if all.Exists != def.Exists || all.States != def.States || all.SafeRegionStates != def.SafeRegionStates {
		t.Errorf("trap against nil: got %+v, want the default analysis %+v", all, def)
	}

	if _, err := ss.FindStarvationTrapAgainst([]graph.PhilID{99}); err == nil {
		t.Error("FindStarvationTrapAgainst accepted an out-of-range philosopher")
	}
}

// TestAnalysisCellRepanics pins the failure mode of the analysis memo: a
// cell whose computation panicked runs it only once, then panics with the
// same value for every later caller instead of handing out a zero result
// (a zero Trap would read as a pass).
func TestAnalysisCellRepanics(t *testing.T) {
	t.Parallel()
	var c cells[uint64, Trap]
	computed := 0
	get := func() (recovered any) {
		defer func() { recovered = recover() }()
		c.get(1, func() Trap { computed++; panic("boom") })
		return nil
	}
	for call := range 3 {
		if r := get(); r != "boom" {
			t.Errorf("call %d recovered %v, want the analysis's panic", call, r)
		}
	}
	if computed != 1 {
		t.Errorf("the panicking analysis ran %d times, want 1", computed)
	}
}

func TestNaiveBaselineDeadlocksAndOthersDoNot(t *testing.T) {
	t.Parallel()
	// The naive symmetric deterministic baseline (everyone left-first,
	// hold-and-wait) deadlocks on every ring — Lehmann & Rabin's
	// impossibility result in action. The model checker finds both true
	// deadlock states and a non-empty dead region.
	naive := runCheck(t, graph.Ring(3), "naive-left-first", algo.Options{}, nil)
	if len(naive.DeadlockStates()) == 0 || len(naive.DeadRegionStates()) == 0 {
		t.Error("expected the naive left-first baseline to deadlock on a ring")
	}
	// The colored and ordered-fork baselines are deadlock-free on the ring.
	for _, name := range []string{"colored", "ordered-forks"} {
		ss := runCheck(t, graph.Ring(3), name, algo.Options{}, nil)
		if dead, region := len(ss.DeadlockStates()), len(ss.DeadRegionStates()); dead != 0 || region != 0 {
			t.Errorf("%s should be deadlock-free on Ring(3): %d deadlock states, %d dead-region states", name, dead, region)
		}
	}
}
