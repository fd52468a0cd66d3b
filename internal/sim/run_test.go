package sim

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// toyProgram is a deliberately simple symmetric program used to exercise the
// engine: a hungry philosopher takes its left fork, then its right fork
// (releasing and retrying when blocked), eats, and releases. It is NOT a
// correct dining-philosopher algorithm (it can deadlock on a ring if every
// philosopher holds its left fork), which also makes it useful for testing
// detectors.
type toyProgram struct{}

func (toyProgram) Name() string    { return "toy" }
func (toyProgram) Init(*World)     {}
func (toyProgram) Symmetric() bool { return true }
func (toyProgram) Outcomes(w *World, p graph.PhilID, buf []Outcome) []Outcome {
	switch w.Phils[p].PC {
	case 1: // thinking
		return ThinkOutcomes(w, p, buf, 2)
	case 2: // take left
		return append(buf, Outcome{Prob: 1, Label: "take left", Apply: toyApplyTakeLeft})
	case 3: // take right or release
		return append(buf, Outcome{Prob: 1, Label: "take right", Apply: toyApplyTakeRight})
	case 4: // finish eating
		return append(buf, Outcome{Prob: 1, Label: "finish", Apply: toyApplyFinish})
	default:
		panic("toy: bad pc")
	}
}

func toyApplyTakeLeft(w *World, p graph.PhilID, _ int64) {
	w.Commit(p, w.Topo.Left(p))
	if w.TryTake(p, w.Topo.Left(p)) {
		w.MarkHoldingFirst(p)
		w.Phils[p].PC = 3
	}
}

func toyApplyTakeRight(w *World, p graph.PhilID, _ int64) {
	st := &w.Phils[p]
	right := w.Topo.OtherFork(p, st.First)
	if w.TryTake(p, right) {
		w.MarkHoldingSecond(p)
		w.StartEating(p)
		st.PC = 4
	} else {
		w.Release(p, st.First)
		st.PC = 2
	}
}

func toyApplyFinish(w *World, p graph.PhilID, _ int64) {
	w.FinishEating(p)
	w.ReleaseAll(p)
	w.BackToThinking(p, 1)
}

// schedFunc adapts a function to the Scheduler interface.
type schedFunc func(w *World) graph.PhilID

func (schedFunc) Name() string                 { return "test-func" }
func (f schedFunc) Next(w *World) graph.PhilID { return f(w) }

// roundRobin is a minimal fair scheduler for engine tests.
type roundRobin struct{ next int }

func (*roundRobin) Name() string { return "test-round-robin" }
func (s *roundRobin) Next(w *World) graph.PhilID {
	p := graph.PhilID(s.next % len(w.Phils))
	s.next++
	return p
}

func TestRunToyOnPathMakesProgress(t *testing.T) {
	t.Parallel()
	topo := graph.Path(3) // acyclic: the toy program cannot deadlock
	res, err := Run(topo, toyProgram{}, &roundRobin{}, prng.New(1), RunOptions{
		MaxSteps:         5000,
		CheckInvariants:  true,
		ValidateOutcomes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Progress() {
		t.Fatal("toy program on a path made no progress")
	}
	if res.TotalEats < 10 {
		t.Errorf("suspiciously few meals: %d", res.TotalEats)
	}
	if res.FirstEatStep < 0 {
		t.Error("FirstEatStep not recorded")
	}
	var sum int64
	for _, e := range res.EatsBy {
		sum += e
	}
	if sum != res.TotalEats {
		t.Errorf("per-philosopher meals %d do not add up to total %d", sum, res.TotalEats)
	}
}

func TestRunStopsAfterTotalEats(t *testing.T) {
	t.Parallel()
	res, err := Run(graph.Path(4), toyProgram{}, &roundRobin{}, prng.New(2), RunOptions{
		MaxSteps:           100000,
		StopAfterTotalEats: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopTotalEats {
		t.Errorf("stop reason %q, want %q", res.Reason, StopTotalEats)
	}
	if res.TotalEats != 5 {
		t.Errorf("TotalEats = %d, want exactly 5", res.TotalEats)
	}
}

func TestRunStopsWhenAllHaveEaten(t *testing.T) {
	t.Parallel()
	res, err := Run(graph.Path(4), toyProgram{}, &roundRobin{}, prng.New(3), RunOptions{
		MaxSteps:             100000,
		StopWhenAllHaveEaten: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllAte {
		t.Errorf("stop reason %q, want %q", res.Reason, StopAllAte)
	}
	for p, e := range res.EatsBy {
		if e == 0 {
			t.Errorf("philosopher %d has not eaten at stop", p)
		}
	}
	if len(res.Starved) != 0 {
		t.Errorf("run that fed everyone reports starvation: %v", res.Starved)
	}
}

func TestRunStopsWhenSpecificPhilEats(t *testing.T) {
	t.Parallel()
	res, err := Run(graph.Path(5), toyProgram{}, &roundRobin{}, prng.New(4), RunOptions{
		MaxSteps:         100000,
		StopWhenPhilEats: true,
		StopPhil:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopPhilAte {
		t.Errorf("stop reason %q, want %q", res.Reason, StopPhilAte)
	}
	if res.EatsBy[3] == 0 {
		t.Error("philosopher 3 did not eat at stop")
	}
}

func TestRunDetectsStarvationUnderUnfairScheduler(t *testing.T) {
	t.Parallel()
	// A scheduler that only ever schedules philosophers 0 and 1 of a path of
	// 3: philosopher 2 never even becomes hungry, so it is not "starved" in
	// the paper's sense; but a scheduler that schedules everyone once and then
	// ignores philosopher 2 leaves it hungry forever.
	calls := 0
	unfair := schedFunc(func(w *World) graph.PhilID {
		calls++
		if calls <= 3 {
			return graph.PhilID(calls - 1) // let everyone become hungry
		}
		return graph.PhilID(calls % 2)
	})
	res, err := Run(graph.Path(3), toyProgram{}, unfair, prng.New(5), RunOptions{MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.Starved {
		if p == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected philosopher 2 to be starved, got %v", res.Starved)
	}
	if res.MaxScheduleGap < 1000 {
		t.Errorf("MaxScheduleGap = %d, expected a large gap for the ignored philosopher", res.MaxScheduleGap)
	}
}

func TestRunRecordsEvents(t *testing.T) {
	t.Parallel()
	rec := &eventLog{}
	_, err := Run(graph.Path(2), toyProgram{}, &roundRobin{}, prng.New(6), RunOptions{
		MaxSteps: 200,
		Recorder: rec,
	})
	events := rec.events
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	kinds := map[EventKind]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []EventKind{EventScheduled, EventBecameHungry, EventTookFork, EventStartEat, EventDoneEat, EventReleasedFork} {
		if !kinds[want] {
			t.Errorf("missing event kind %v", want)
		}
	}
}

// eventLog is a Recorder keeping every event.
type eventLog struct{ events []Event }

func (l *eventLog) Record(e Event) { l.events = append(l.events, e) }

func TestRunRejectsBadScheduler(t *testing.T) {
	t.Parallel()
	bad := schedFunc(func(*World) graph.PhilID { return 99 })
	if _, err := Run(graph.Path(2), toyProgram{}, bad, prng.New(1), RunOptions{MaxSteps: 10}); err == nil {
		t.Fatal("Run accepted an out-of-range philosopher from the scheduler")
	}
}

func TestRunRejectsNilArguments(t *testing.T) {
	t.Parallel()
	if _, err := Run(nil, toyProgram{}, &roundRobin{}, prng.New(1), RunOptions{}); err == nil {
		t.Error("Run accepted nil topology")
	}
	if _, err := Run(graph.Path(2), nil, &roundRobin{}, prng.New(1), RunOptions{}); err == nil {
		t.Error("Run accepted nil program")
	}
	if _, err := Run(graph.Path(2), toyProgram{}, nil, prng.New(1), RunOptions{}); err == nil {
		t.Error("Run accepted nil scheduler")
	}
	if _, err := Run(graph.Path(2), toyProgram{}, &roundRobin{}, nil, RunOptions{}); err == nil {
		t.Error("Run accepted nil rng")
	}
}

func TestThinkOutcomes(t *testing.T) {
	t.Parallel()
	w := NewWorld(graph.Ring(3))
	hungry := ThinkOutcomes(w, 0, nil, 7)
	if len(hungry) != 1 || hungry[0].Prob != 1 || hungry[0].Label != "become hungry" {
		t.Fatalf("a scheduled thinking philosopher must become hungry with probability 1, got %+v", hungry)
	}
	if err := ValidateOutcomes(hungry); err != nil {
		t.Error(err)
	}
	// The outcome applies the standard bookkeeping and jumps to the
	// requested PC.
	hungry[0].Do(w, 0)
	if w.PhaseOf(0) != Hungry || w.Phils[0].PC != 7 {
		t.Errorf("hungry outcome did not apply: phase %v pc %d", w.PhaseOf(0), w.Phils[0].PC)
	}
}

func TestValidateOutcomes(t *testing.T) {
	t.Parallel()
	noop := func(*World, graph.PhilID, int64) {}
	ok := []Outcome{{Prob: 0.5, Apply: noop}, {Prob: 0.5, Apply: noop}}
	if err := ValidateOutcomes(ok); err != nil {
		t.Errorf("valid outcomes rejected: %v", err)
	}
	if err := ValidateOutcomes(nil); err == nil {
		t.Error("empty outcome set accepted")
	}
	if err := ValidateOutcomes([]Outcome{{Prob: 0.4, Apply: noop}}); err == nil {
		t.Error("probabilities not summing to 1 accepted")
	}
	if err := ValidateOutcomes([]Outcome{{Prob: 1, Apply: nil}}); err == nil {
		t.Error("nil Apply accepted")
	}
	if err := ValidateOutcomes([]Outcome{{Prob: -1, Apply: noop}, {Prob: 2, Apply: noop}}); err == nil {
		t.Error("negative probability accepted")
	}
}

func TestSampleOutcomeDistribution(t *testing.T) {
	t.Parallel()
	rng := prng.New(77)
	counts := map[string]int{}
	noop := func(*World, graph.PhilID, int64) {}
	outcomes := []Outcome{
		{Prob: 0.75, Label: "a", Apply: noop},
		{Prob: 0.25, Label: "b", Apply: noop},
	}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleOutcome(outcomes, rng).Label]++
	}
	fracA := float64(counts["a"]) / n
	if math.Abs(fracA-0.75) > 0.02 {
		t.Errorf("outcome 'a' frequency %v, want about 0.75", fracA)
	}
}

func TestEventStrings(t *testing.T) {
	t.Parallel()
	e := Event{Step: 3, Kind: EventTookFork, Phil: 1, Fork: 2}
	if e.String() == "" {
		t.Error("empty event string")
	}
	e2 := Event{Step: 3, Kind: EventBecameHungry, Phil: 1, Fork: graph.NoFork}
	if e2.String() == "" {
		t.Error("empty event string")
	}
	for k := EventScheduled; k <= EventAux; k++ {
		if k.String() == "" {
			t.Errorf("event kind %d has empty string", k)
		}
	}
}
