package sim

import (
	"testing"

	"repro/internal/graph"
)

func TestNewWorldInitialSymmetry(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	w := NewWorld(topo)
	// The paper's symmetry condition: all philosophers and all forks start in
	// the same state.
	for p := 1; p < len(w.Phils); p++ {
		if w.Phils[p] != w.Phils[0] {
			t.Errorf("philosopher %d initial state %+v differs from philosopher 0 %+v", p, w.Phils[p], w.Phils[0])
		}
	}
	for f := range w.Forks {
		fs := &w.Forks[f]
		if fs.Holder != graph.NoPhil || fs.NR != 0 {
			t.Errorf("fork %d not in initial state: %+v", f, fs)
		}
		fid := graph.ForkID(f)
		req, used := w.ForkReqForTest(fid), w.ForkUsed(fid)
		for slot := range req {
			if req[slot] || used[slot] != -1 {
				t.Errorf("fork %d slot %d has non-initial request/guest-book state", f, slot)
			}
		}
	}
	for p := range w.Phils {
		if w.Phils[p].Phase != Thinking {
			t.Errorf("fresh world has philosopher %d in phase %v", p, w.Phils[p].Phase)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Errorf("fresh world violates invariants: %v", err)
	}
}

func TestTakeReleaseCycle(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	p := graph.PhilID(0)
	f := topo.Left(p)

	w.BecomeHungry(p)
	if w.PhaseOf(p) != Hungry {
		t.Fatal("BecomeHungry did not set phase")
	}
	w.Commit(p, f)
	if !w.IsCommitted(p) {
		t.Fatal("Commit did not register commitment")
	}
	if !w.TryTake(p, f) {
		t.Fatal("TryTake on a free fork failed")
	}
	w.MarkHoldingFirst(p)
	if w.IsFree(f) || w.Forks[f].Holder != p {
		t.Error("fork not recorded as held")
	}
	if w.IsCommitted(p) {
		t.Error("philosopher holding its first fork should not be 'committed'")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Errorf("invariants after take: %v", err)
	}

	// Another philosopher sharing f cannot take it.
	q := topo.PhilosophersAt(f)[0]
	if q == p {
		q = topo.PhilosophersAt(f)[1]
	}
	if w.TryTake(q, f) {
		t.Error("TryTake succeeded on a held fork")
	}

	w.Release(p, f)
	if !w.IsFree(f) {
		t.Error("Release did not free the fork")
	}
	if w.Phils[p].HasFirst {
		t.Error("Release did not clear HasFirst")
	}
}

func TestReleasePanicsWhenNotHolder(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	defer func() {
		if recover() == nil {
			t.Fatal("Release by a non-holder did not panic")
		}
	}()
	w.Release(0, topo.Left(0))
}

func TestEatingLifecycleMetrics(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	p := graph.PhilID(1)
	l, r := topo.Left(p), topo.Right(p)

	w.Step = 10
	w.BecomeHungry(p)
	w.Commit(p, l)
	w.TryTake(p, l)
	w.MarkHoldingFirst(p)
	w.Step = 25
	w.TryTake(p, r)
	w.MarkHoldingSecond(p)
	w.StartEating(p)

	if !w.IsEating(p) {
		t.Fatal("StartEating did not set phase")
	}
	if w.FirstEatStep != 25 || w.FirstEatBy[p] != 25 {
		t.Errorf("first-eat bookkeeping: global %d personal %d, want 25", w.FirstEatStep, w.FirstEatBy[p])
	}
	if w.TotalWait != 15 {
		t.Errorf("TotalWait = %d, want 15", w.TotalWait)
	}

	w.FinishEating(p)
	if w.TotalEats != 1 || w.EatsBy[p] != 1 {
		t.Errorf("FinishEating counters: total %d, by %d", w.TotalEats, w.EatsBy[p])
	}
	w.ReleaseAll(p)
	w.BackToThinking(p, 1)
	if w.PhaseOf(p) != Thinking || w.Phils[p].First != graph.NoFork {
		t.Error("BackToThinking did not reset state")
	}
	if err := w.CheckInvariants(); err != nil {
		t.Errorf("invariants after full cycle: %v", err)
	}
}

func TestStartEatingPanicsWithoutForks(t *testing.T) {
	t.Parallel()
	w := NewWorld(graph.Ring(3))
	w.BecomeHungry(0)
	defer func() {
		if recover() == nil {
			t.Fatal("StartEating without forks did not panic")
		}
	}()
	w.StartEating(0)
}

func TestCondCourtesySemantics(t *testing.T) {
	t.Parallel()
	// Theta(1,1,1): 2 forks shared by 3 philosophers — a fork with 3 adjacent
	// philosophers exercises the generalized guest book.
	topo := graph.Theorem2Minimal()
	w := NewWorld(topo)
	f := graph.ForkID(0)
	p0, p1, p2 := graph.PhilID(0), graph.PhilID(1), graph.PhilID(2)

	// Initially: nobody requested, nobody used — everyone may take.
	for _, p := range []graph.PhilID{p0, p1, p2} {
		if !w.Cond(p, f) {
			t.Errorf("initial Cond(P%d, f0) = false, want true", p)
		}
	}

	// p1 requests. p0 has never used the fork, p1 has never used it either:
	// p0 may still take it (nobody is "behind" p0).
	w.Request(p1, f)
	if !w.Cond(p0, f) {
		t.Error("Cond(P0) with a fresh competing request should be true")
	}

	// p0 uses the fork (signs the guest book); p1 still requesting and has
	// never used it: now p0 must defer to p1.
	w.Step = 5
	w.SignGuestBook(p0, f)
	if w.Cond(p0, f) {
		t.Error("Cond(P0) should be false: P0 ate more recently than requester P1")
	}
	// p1 itself is fine (its own request doesn't block it, and p0 has no
	// request).
	if !w.Cond(p1, f) {
		t.Error("Cond(P1) should be true")
	}

	// p1 uses the fork later; now both have used it and p1 is the most recent,
	// so p0 may go again, while p1 must defer if p0 requests.
	w.Step = 9
	w.SignGuestBook(p1, f)
	if !w.Cond(p0, f) {
		t.Error("Cond(P0) should be true after P1's later use")
	}
	w.Request(p0, f)
	if w.Cond(p1, f) {
		t.Error("Cond(P1) should be false: P1 used the fork after P0 and P0 is requesting")
	}
	// A third philosopher with no history is not blocked by anyone ahead of
	// it... but it is blocked if others requested and it has used the fork
	// more recently than them; p2 never used it, so it may take.
	if !w.Cond(p2, f) {
		t.Error("Cond(P2) with no usage history should be true")
	}

	// Removing requests unblocks.
	w.Unrequest(p0, f)
	if !w.Cond(p1, f) {
		t.Error("Cond(P1) should be true after P0's request is removed")
	}
	if w.HasRequest(p0, f) || !w.HasRequest(p1, f) {
		t.Error("HasRequest bookkeeping wrong")
	}
}

func TestGuestBookEmpty(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	if !w.GuestBookEmpty(0) {
		t.Error("fresh guest book should be empty")
	}
	w.SignGuestBook(0, 0)
	if w.GuestBookEmpty(0) {
		t.Error("guest book with a signature should not be empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	w := NewWorld(topo)
	w.BecomeHungry(0)
	w.Commit(0, topo.Left(0))
	w.TryTake(0, topo.Left(0))
	w.MarkHoldingFirst(0)
	w.Request(2, topo.Left(2))
	w.SetNR(0, topo.Left(0), 3)

	c := w.Clone()
	if string(c.AppendKey(nil)) != string(w.AppendKey(nil)) {
		t.Fatal("clone has different key than original")
	}

	// Mutate the clone; the original must not change.
	c.Release(0, topo.Left(0))
	c.SetNR(1, topo.Left(0), 7)
	c.Request(4, topo.Left(4))
	if w.IsFree(topo.Left(0)) {
		t.Error("mutating clone released the original's fork")
	}
	if w.NR(topo.Left(0)) != 3 {
		t.Error("mutating clone changed the original's nr")
	}
	if string(c.AppendKey(nil)) == string(w.AppendKey(nil)) {
		t.Error("diverged clone still has equal key")
	}
}

// TestViewSharesProtocolState pins View's contract: protocol writes through
// a view land in the shared world, while the step counter and the meal
// count stay the view's own.
func TestViewSharesProtocolState(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	a, b := w.View(), w.View()
	a.Step, b.Step = 5, 9
	for _, v := range []*World{a, b} {
		p := graph.PhilID(0)
		if v == b {
			p = 1
		}
		v.BecomeHungry(p)
		v.Commit(p, topo.Left(p))
		v.Request(p, topo.Left(p))
		v.SignGuestBook(p, topo.Left(p))
	}
	b.TryTake(1, topo.Left(1))
	b.MarkHoldingFirst(1)
	b.TryTake(1, topo.Right(1))
	b.MarkHoldingSecond(1)
	b.StartEating(1)
	b.FinishEating(1)
	if w.Forks[topo.Left(1)].Holder != 1 || !w.HasRequest(0, topo.Left(0)) || w.Phils[0].Phase != Hungry {
		t.Errorf("views' writes missing from the shared world: %s", w)
	}
	if got := w.ForkUsed(topo.Left(0))[topo.Slot(topo.Left(0), 0)]; got != 5 {
		t.Errorf("guest book of view a = %d, want its own step 5", got)
	}
	if b.TotalEats != 1 || a.TotalEats != 0 || w.TotalEats != 0 || w.Step != 0 {
		t.Errorf("meals a/b/world = %d/%d/%d, world step %d: want 0/1/0 and 0", a.TotalEats, b.TotalEats, w.TotalEats, w.Step)
	}
	if b.EatsBy != nil || b.rec != nil {
		t.Error("a view carries metrics or a recorder")
	}
}

// TestCloneLocalIntoCopiesNeighbourhood pins that a local clone, fresh or
// recycled, agrees with the world on everything a step of the philosopher
// may read: its own state, its two forks with every adjacency slot
// (in-flight grants included) and the globals.
func TestCloneLocalIntoCopiesNeighbourhood(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	w := NewWorld(topo)
	w.EnsurePending()
	w.BecomeHungry(2)
	w.Commit(2, topo.Left(2))
	w.Request(2, topo.Left(2))
	right := topo.Right(2)
	q := topo.PhilosophersAt(right)[0]
	if q == 2 {
		q = topo.PhilosophersAt(right)[1]
	}
	w.SignGuestBook(q, right)
	w.SetNR(2, right, 4)
	w.GrantInFlight(q, right, 2)
	w.EnsureGlobals(1)
	w.SetGlobal(0, 7)
	var dst *World
	for range 2 { // fresh, then recycled
		dst = w.CloneLocalInto(dst, 2)
		if dst.Phils[2] != w.Phils[2] || dst.Step != w.Step || dst.Global(0) != 7 {
			t.Fatalf("local clone differs in the philosopher's state: %+v vs %+v", dst.Phils[2], w.Phils[2])
		}
		for _, f := range topo.Forks(2) {
			if dst.Forks[f] != w.Forks[f] || dst.IsFree(f) != w.IsFree(f) || dst.Cond(2, f) != w.Cond(2, f) {
				t.Errorf("local clone differs on fork %d", f)
			}
			for _, q := range topo.PhilosophersAt(f) {
				if dst.HasRequest(q, f) != w.HasRequest(q, f) || dst.ForkUsed(f)[topo.Slot(f, q)] != w.ForkUsed(f)[topo.Slot(f, q)] {
					t.Errorf("local clone differs on fork %d slot of philosopher %d", f, q)
				}
			}
		}
		dst.Phils[q].PC = 9 // outside the neighbourhood: unspecified
	}
}

func TestKeyIgnoresStepAndMetrics(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(4)
	a := NewWorld(topo)
	b := NewWorld(topo)
	b.Step = 400
	b.TotalEats = 7
	b.EatsBy[0] = 7
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("Key should not depend on the step counter or metrics")
	}
}

func TestKeyGuestBookRankNormalization(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	a := NewWorld(topo)
	b := NewWorld(topo)
	// Same relative guest-book order, different absolute timestamps.
	a.Step = 3
	a.SignGuestBook(0, 0)
	a.Step = 9
	a.SignGuestBook(2, 0)
	b.Step = 100
	b.SignGuestBook(0, 0)
	b.Step = 2000
	b.SignGuestBook(2, 0)
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("keys should agree when guest-book orders agree")
	}
	// Different relative order must give different keys.
	c := NewWorld(topo)
	c.Step = 9
	c.SignGuestBook(2, 0)
	c.Step = 50
	c.SignGuestBook(0, 0)
	if string(a.AppendKey(nil)) == string(c.AppendKey(nil)) {
		t.Error("keys should differ when guest-book orders differ")
	}
}

func TestKeyDistinguishesProtocolState(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	base := string(NewWorld(topo).AppendKey(nil))

	w1 := NewWorld(topo)
	w1.BecomeHungry(1)
	if string(w1.AppendKey(nil)) == base {
		t.Error("key should reflect phase changes")
	}

	w2 := NewWorld(topo)
	w2.SetNR(0, 1, 2)
	if string(w2.AppendKey(nil)) == base {
		t.Error("key should reflect nr changes")
	}

	w3 := NewWorld(topo)
	w3.Request(0, topo.Left(0))
	if string(w3.AppendKey(nil)) == base {
		t.Error("key should reflect request-list changes")
	}

	w4 := NewWorld(topo)
	w4.SetGlobal(0, 5)
	if string(w4.AppendKey(nil)) == base {
		t.Error("key should reflect globals")
	}
}

func TestCouldEatNextAndHeldForks(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	p := graph.PhilID(0)
	if w.CouldEatNext(p) {
		t.Error("thinking philosopher cannot be about to eat")
	}
	w.BecomeHungry(p)
	w.Commit(p, topo.Left(p))
	w.TryTake(p, topo.Left(p))
	w.MarkHoldingFirst(p)
	if !w.CouldEatNext(p) {
		t.Error("philosopher holding first fork with free second fork should be CouldEatNext")
	}
	if !w.HoldsOnlyFirst(p) || w.FirstForkOf(p) != topo.Left(p) {
		t.Errorf("P%d holds %+v, want only its left fork %d", p, w.Phils[p], topo.Left(p))
	}
	// Occupy the second fork with the neighbour: no longer dangerous.
	q := graph.PhilID(1)
	w.BecomeHungry(q)
	w.Commit(q, topo.Right(p))
	w.TryTake(q, topo.Right(p))
	w.MarkHoldingFirst(q)
	if w.CouldEatNext(p) {
		t.Error("CouldEatNext should be false when the second fork is held")
	}
	if w.SecondForkOf(p) != topo.Right(p) {
		t.Error("SecondForkOf wrong")
	}
	if w.PhaseOf(p) != Hungry || w.PhaseOf(q) != Hungry || w.PhaseOf(2) != Thinking {
		t.Errorf("phases %v, %v, %v; want P0 and P1 hungry, P2 thinking", w.PhaseOf(p), w.PhaseOf(q), w.PhaseOf(2))
	}
}

func TestInvariantViolationDetected(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := NewWorld(topo)
	// Corrupt the state: a fork held by a philosopher that does not
	// acknowledge it.
	w.Forks[0].Holder = 2
	if err := w.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepted a fork held without acknowledgement")
	}

	w2 := NewWorld(topo)
	w2.Phils[0].Phase = Eating
	if err := w2.CheckInvariants(); err == nil {
		t.Error("CheckInvariants accepted an eating philosopher without forks")
	}
}

func TestGlobals(t *testing.T) {
	t.Parallel()
	w := NewWorld(graph.Ring(3))
	if w.Global(2) != 0 {
		t.Error("unset global should read 0")
	}
	w.SetGlobal(2, 42)
	if w.Global(2) != 42 {
		t.Error("SetGlobal/Global round trip failed")
	}
	c := w.Clone()
	c.SetGlobal(2, 7)
	if w.Global(2) != 42 {
		t.Error("clone shares globals with original")
	}
}

func TestPhaseString(t *testing.T) {
	t.Parallel()
	if Thinking.String() != "thinking" || Hungry.String() != "hungry" || Eating.String() != "eating" {
		t.Error("Phase.String values wrong")
	}
}

func TestWorldStringContainsBasics(t *testing.T) {
	t.Parallel()
	w := NewWorld(graph.Ring(2))
	s := w.String()
	if len(s) == 0 {
		t.Error("String() empty")
	}
}
