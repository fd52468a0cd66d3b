package sim

import (
	"fmt"

	"repro/internal/graph"
)

// The operations in this file are the shared-variable primitives of the
// paper: atomic test-and-set / release of forks, the nr field of GDP1/GDP2,
// and the request list r and guest book g of LR2/GDP2. Philosopher programs
// compose them inside Outcome.Apply functions; each helper performs exactly
// one paper-level operation and keeps philosopher and fork bookkeeping
// consistent. Metric updates are skipped on protocol-only worlds
// (CloneProtocol), whose metric slices are nil.

// BecomeHungry moves philosopher p from thinking to the trying section.
func (w *World) BecomeHungry(p graph.PhilID) {
	st := &w.Phils[p]
	st.Phase = Hungry
	if w.HungrySince != nil {
		w.HungrySince[p] = w.Step
	}
	w.emit(EventBecameHungry, p, graph.NoFork, 0)
}

// Commit records p selecting fork f as its first fork (not yet taken).
func (w *World) Commit(p graph.PhilID, f graph.ForkID) {
	st := &w.Phils[p]
	st.First = f
	st.HasFirst = false
	st.HasSecond = false
	w.emit(EventCommitted, p, f, 0)
}

// TryTake performs the atomic "if isFree(fork) then take(fork)" test-and-set
// for philosopher p on fork f. It returns true when the fork was free and is
// now held by p. The caller is responsible for updating the program counter
// based on the result and for calling MarkHolding to reflect which of p's two
// holdings f is.
func (w *World) TryTake(p graph.PhilID, f graph.ForkID) bool {
	if w.Forks[f].Holder != graph.NoPhil {
		w.emit(EventForkBusy, p, f, int64(w.Forks[f].Holder))
		return false
	}
	if w.pending != nil && w.forkReserved(f) {
		// An in-flight grant (delayed-grants fault model) commits the fork to
		// its holder-to-be; everyone finds it busy until the grant arrives.
		w.emit(EventForkBusy, p, f, int64(graph.NoPhil))
		return false
	}
	w.Forks[f].Holder = p
	w.emit(EventTookFork, p, f, 0)
	return true
}

// MarkHoldingFirst records on p's side that it now holds its first fork.
func (w *World) MarkHoldingFirst(p graph.PhilID) { w.Phils[p].HasFirst = true }

// MarkHoldingSecond records on p's side that it now holds its second fork.
func (w *World) MarkHoldingSecond(p graph.PhilID) { w.Phils[p].HasSecond = true }

// Release releases fork f held by p. It panics if p does not hold f, because
// such a release is a bug in the calling algorithm, not a runtime condition.
func (w *World) Release(p graph.PhilID, f graph.ForkID) {
	if w.Forks[f].Holder != p {
		panic(fmt.Sprintf("sim: philosopher %d releasing fork %d held by %d", p, f, w.Forks[f].Holder))
	}
	w.Forks[f].Holder = graph.NoPhil
	st := &w.Phils[p]
	if st.First == f {
		st.HasFirst = false
	} else if st.First != graph.NoFork && w.Topo.OtherFork(p, st.First) == f {
		st.HasSecond = false
	}
	w.emit(EventReleasedFork, p, f, 0)
}

// ReleaseAll releases every fork currently held by p (used by the combined
// "release(fork); release(other(fork))" lines and by tests). The first fork
// is released before the second, matching the paper's pseudo-code order.
func (w *World) ReleaseAll(p graph.PhilID) {
	st := &w.Phils[p]
	if st.HasFirst {
		w.Release(p, st.First)
	}
	if st.HasSecond {
		w.Release(p, w.Topo.OtherFork(p, st.First))
	}
}

// ClearSelection removes p's current first-fork selection. The algorithms call
// it when they release their first fork and jump back to the selection step,
// so that observers (adversaries, traces, the model checker) see the
// philosopher as having no pending commitment rather than a stale one.
func (w *World) ClearSelection(p graph.PhilID) {
	st := &w.Phils[p]
	st.First = graph.NoFork
	st.HasFirst = false
	st.HasSecond = false
}

// SetNR sets the nr field of fork f to value on behalf of philosopher p.
func (w *World) SetNR(p graph.PhilID, f graph.ForkID, value int) {
	w.Forks[f].NR = value
	w.emit(EventChangedNR, p, f, int64(value))
}

// NR returns the nr field of fork f.
func (w *World) NR(f graph.ForkID) int { return w.Forks[f].NR }

// StartEating marks p as eating (it must hold both forks) and updates the
// first-eat metrics.
func (w *World) StartEating(p graph.PhilID) {
	st := &w.Phils[p]
	if !st.HasFirst || !st.HasSecond {
		panic(fmt.Sprintf("sim: philosopher %d starting to eat without both forks", p))
	}
	st.Phase = Eating
	if w.FirstEatStep < 0 {
		w.FirstEatStep = w.Step
	}
	if w.FirstEatBy != nil && w.FirstEatBy[p] < 0 {
		w.FirstEatBy[p] = w.Step
	}
	if w.HungrySince != nil && w.HungrySince[p] >= 0 {
		w.TotalWait += w.Step - w.HungrySince[p]
		w.HungrySince[p] = -1
	}
	w.emit(EventStartEat, p, graph.NoFork, 0)
}

// FinishEating records the completion of p's meal. The forks are NOT released
// here; the algorithms release them in their own subsequent atomic steps, as
// in the paper's pseudo-code.
func (w *World) FinishEating(p graph.PhilID) {
	w.TotalEats++
	var eats int64
	if w.EatsBy != nil {
		w.EatsBy[p]++
		eats = w.EatsBy[p]
	}
	w.emit(EventDoneEat, p, graph.NoFork, eats)
}

// BackToThinking resets p's trying-section bookkeeping and returns it to the
// thinking phase with the given program counter.
func (w *World) BackToThinking(p graph.PhilID, pc uint8) {
	st := &w.Phils[p]
	st.Phase = Thinking
	st.PC = pc
	st.First = graph.NoFork
	st.HasFirst = false
	st.HasSecond = false
}

// --- Crash faults (package fault) ---

// Crash removes philosopher p from the protocol: its held forks are released
// (in the paper's release order), its outstanding requests are withdrawn (the
// fork objects garbage-collect a crashed guest), its selection and volatile
// local state are cleared, and it is parked in the thinking section with the
// Crashed flag set. Guest books keep p's history — signatures are durable
// fork-side state. Only fault models call Crash; it keeps every invariant of
// CheckInvariants.
func (w *World) Crash(p graph.PhilID) {
	w.ReleaseAll(p)
	for _, f := range w.Topo.Forks(p) {
		if w.HasRequest(p, f) {
			w.Unrequest(p, f)
		}
	}
	st := &w.Phils[p]
	st.Phase = Thinking
	st.PC = 1
	st.First = graph.NoFork
	st.HasFirst = false
	st.HasSecond = false
	st.Aux = [2]int64{}
	st.Crashed = true
	if w.HungrySince != nil {
		w.HungrySince[p] = -1
	}
	w.emit(EventCrashed, p, graph.NoFork, 0)
}

// Rejoin re-enters a crashed philosopher into the protocol. Crash already
// parked it at the initial thinking state, so clearing the flag is the whole
// recovery.
func (w *World) Rejoin(p graph.PhilID) {
	w.Phils[p].Crashed = false
	w.emit(EventRejoined, p, graph.NoFork, 0)
}

// StayCrashed records a crashed philosopher being scheduled while it remains
// crashed (the fault layer's self-loop outcome).
func (w *World) StayCrashed(p graph.PhilID) {
	w.emit(EventStillCrashed, p, graph.NoFork, 0)
}

// LoseGrant records a hungry philosopher's step no-opping because a fault
// model lost its fork grant.
func (w *World) LoseGrant(p graph.PhilID) {
	w.emit(EventGrantLost, p, graph.NoFork, 0)
}

// IsCrashed reports whether philosopher p is currently crashed.
func (w *World) IsCrashed(p graph.PhilID) bool { return w.Phils[p].Crashed }

// --- Delayed grants (package fault) ---
//
// The delayed-grants fault model replaces a successful take of a free fork
// with a reservation: the fork stays unheld but committed to its
// holder-to-be (TryTake and IsFree report it busy to everyone), and the
// philosopher stalls — its scheduled steps offer only deliver/decrement
// branches — until the grant arrives. Delivery releases the reservation and
// unstalls the philosopher, whose next scheduled step re-executes its take
// step against a fork that the reservation kept free, so every algorithm
// completes the acquisition through its own unmodified code path.

// GrantInFlight replaces philosopher p's take of fork f with an in-flight
// grant carrying remaining-delay counter delay (at most MaxGrantDelay). The
// fork must be free; p's own state is left untouched.
func (w *World) GrantInFlight(p graph.PhilID, f graph.ForkID, delay uint8) {
	if delay > MaxGrantDelay {
		panic(fmt.Sprintf("sim: grant delay %d exceeds MaxGrantDelay %d", delay, MaxGrantDelay))
	}
	if w.Forks[f].Holder != graph.NoPhil {
		panic(fmt.Sprintf("sim: grant of held fork %d put in flight to philosopher %d", f, p))
	}
	w.EnsurePending()
	w.pending.slots[w.slotIndex(f, p)] = pendingInFlight | delay
	w.emit(EventGrantInFlight, p, f, int64(delay))
}

// DelayGrant decrements the remaining-delay counter of the grant in flight
// to philosopher p on fork f (saturating at zero). It panics without an
// in-flight grant, because only the fault model's delay branch calls it.
func (w *World) DelayGrant(p graph.PhilID, f graph.ForkID) {
	idx := w.slotIndex(f, p)
	v := w.pending.slots[idx]
	if v&pendingInFlight == 0 {
		panic(fmt.Sprintf("sim: delaying fork %d with no grant in flight to philosopher %d", f, p))
	}
	if v&pendingDelayMask > 0 {
		v--
	}
	w.pending.slots[idx] = v
	w.emit(EventGrantDelayed, p, f, int64(v&pendingDelayMask))
}

// DeliverGrant delivers the grant in flight to philosopher p on fork f: the
// reservation is released and p resumes its protocol at its next scheduled
// step (re-executing the take that was put in flight). It panics without an
// in-flight grant.
func (w *World) DeliverGrant(p graph.PhilID, f graph.ForkID) {
	idx := w.slotIndex(f, p)
	if w.pending.slots[idx]&pendingInFlight == 0 {
		panic(fmt.Sprintf("sim: delivering fork %d with no grant in flight to philosopher %d", f, p))
	}
	w.pending.slots[idx] = 0
	w.emit(EventGrantDelivered, p, f, 0)
}

// PendingGrant returns the fork with a grant currently in flight to
// philosopher p and its remaining-delay counter, or (graph.NoFork, 0, false).
// A stalled philosopher has exactly one grant in flight.
func (w *World) PendingGrant(p graph.PhilID) (graph.ForkID, uint8, bool) {
	if w.pending == nil {
		return graph.NoFork, 0, false
	}
	for _, f := range w.Topo.Forks(p) {
		if v := w.pending.slots[w.slotIndex(f, p)]; v&pendingInFlight != 0 {
			return f, v & pendingDelayMask, true
		}
	}
	return graph.NoFork, 0, false
}

// forkReserved reports whether fork f has a grant in flight to any adjacent
// philosopher. Callers check w.pending != nil first.
func (w *World) forkReserved(f graph.ForkID) bool {
	base := w.Topo.SlotBase(f)
	for s := 0; s < w.Topo.Degree(f); s++ {
		if w.pending.slots[base+s]&pendingInFlight != 0 {
			return true
		}
	}
	return false
}

// --- Request lists and guest books (LR2 / GDP2) ---

// slotIndex returns p's index into the flat req/used arrays for fork f.
func (w *World) slotIndex(f graph.ForkID, p graph.PhilID) int {
	return w.Topo.SlotBase(f) + w.Topo.Slot(f, p)
}

// Request inserts p into fork f's request list r.
func (w *World) Request(p graph.PhilID, f graph.ForkID) {
	w.req[w.slotIndex(f, p)] = true
	w.emit(EventRequested, p, f, 0)
}

// Unrequest removes p from fork f's request list r.
func (w *World) Unrequest(p graph.PhilID, f graph.ForkID) {
	w.req[w.slotIndex(f, p)] = false
	w.emit(EventUnrequested, p, f, 0)
}

// HasRequest reports whether p currently has a request on fork f.
func (w *World) HasRequest(p graph.PhilID, f graph.ForkID) bool {
	return w.req[w.slotIndex(f, p)]
}

// SignGuestBook records in fork f's guest book that p has just used it.
func (w *World) SignGuestBook(p graph.PhilID, f graph.ForkID) {
	w.used[w.slotIndex(f, p)] = w.Step
	w.emit(EventSignedGuestBook, p, f, 0)
}

// GuestBookEmpty reports whether no philosopher has ever signed fork f's
// guest book. (Used to check the Theorem 2 observation that the adversary can
// keep the guest books of the trapped region empty forever.)
func (w *World) GuestBookEmpty(f graph.ForkID) bool {
	for _, u := range w.ForkUsed(f) {
		if u >= 0 {
			return false
		}
	}
	return true
}

// RecordBlockedByCond records that p examined fork f but declined to take it
// because the courtesy condition Cond(fork) was false (LR2/GDP2 line 4).
func (w *World) RecordBlockedByCond(p graph.PhilID, f graph.ForkID) {
	w.emit(EventBlockedByCond, p, f, 0)
}

// Cond evaluates the courtesy condition Cond(fork) of Section 3.2 for
// philosopher p on fork f: p may take the fork only if every other
// philosopher with an outstanding request on f has used the fork no earlier
// than p's own last use (equivalently, p is not "ahead" of any hungry
// neighbour on this fork). With empty request lists or empty guest books the
// condition is vacuously true, matching the paper's initial state.
func (w *World) Cond(p graph.PhilID, f graph.ForkID) bool {
	base := w.Topo.SlotBase(f)
	deg := w.Topo.Degree(f)
	mySlot := w.Topo.Slot(f, p)
	myUse := w.used[base+mySlot]
	for slot := 0; slot < deg; slot++ {
		if !w.req[base+slot] || slot == mySlot {
			continue
		}
		if w.used[base+slot] < myUse {
			return false
		}
	}
	return true
}

// --- Globals (shared state for the non-distributed baselines) ---

// EnsureGlobals grows the Globals slice to at least n entries (zero-filled).
func (w *World) EnsureGlobals(n int) {
	for len(w.Globals) < n {
		w.Globals = append(w.Globals, 0)
	}
}

// Global returns global auxiliary register i (0 if never set).
func (w *World) Global(i int) int64 {
	if i >= len(w.Globals) {
		return 0
	}
	return w.Globals[i]
}

// SetGlobal sets global auxiliary register i.
func (w *World) SetGlobal(i int, v int64) {
	w.EnsureGlobals(i + 1)
	w.Globals[i] = v
	w.emit(EventAux, graph.NoPhil, graph.NoFork, v)
}
