package algo

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// This file implements the four classical solutions sketched in the paper's
// introduction as baselines. None of them satisfies both of the paper's
// conditions: the first two break symmetry (philosophers or forks are
// distinguishable), the last two break full distribution (they rely on a
// central monitor or a shared ticket box). They are included for the
// comparative benchmarks and to illustrate, by contrast, what the symmetric
// fully distributed algorithms achieve.

// --- Ordered forks (hierarchical resource allocation) ---

// OrderedForks is the classical deterministic solution via a global total
// order on forks: every philosopher first acquires its lower-numbered fork,
// holding it while waiting for the higher-numbered one. It is deadlock-free on
// every topology (the wait-for relation follows the fork order) but breaks
// the symmetry condition: fork identities are globally ordered, so forks are
// distinguishable.
type OrderedForks struct{}

// NewOrderedForks returns the ordered-fork baseline.
func NewOrderedForks() *OrderedForks { return &OrderedForks{} }

// Name implements sim.Program.
func (*OrderedForks) Name() string { return "ordered-forks" }

// Symmetric implements sim.Program.
func (*OrderedForks) Symmetric() bool { return false }

// Init implements sim.Program.
func (*OrderedForks) Init(*sim.World) {}

// Outcomes implements sim.Program.
func (*OrderedForks) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	low := min(w.Topo.Left(p), w.Topo.Right(p))
	return holdAndWait("ordered-forks", w, p, buf, low, "take low fork", "take high fork")
}

// --- Naive left-first philosophers ---

// Naive is the textbook broken solution: every philosopher takes its left
// fork first and holds it while waiting for the right fork. It is symmetric
// and fully distributed but deterministic, so — as Lehmann and Rabin's
// impossibility result predicts — it cannot be correct: on any ring the
// adversary (or plain round-robin scheduling) drives it into the circular
// hold-and-wait deadlock. It exists as the negative control for the deadlock
// detectors and benchmarks.
type Naive struct{}

// NewNaive returns the naive left-first baseline.
func NewNaive() *Naive { return &Naive{} }

// Name implements sim.Program.
func (*Naive) Name() string { return "naive-left-first" }

// Symmetric implements sim.Program: the code is symmetric and fully
// distributed — which is exactly why it cannot work.
func (*Naive) Symmetric() bool { return true }

// Init implements sim.Program.
func (*Naive) Init(*sim.World) {}

// Outcomes implements sim.Program.
func (*Naive) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	return holdAndWait("naive", w, p, buf, w.Topo.Left(p), "take left fork", "take right fork")
}

// --- Colored philosophers ---

// Colored is the classical two-coloring solution: "yellow" philosophers (even
// IDs) take their left fork first, "blue" philosophers (odd IDs) take their
// right fork first, each holding the first fork while waiting for the second.
// On an even classic ring the coloring alternates around the table and the
// solution is deadlock-free; on odd rings and on generalized topologies the
// ID-parity coloring is not a proper alternation and the algorithm can
// deadlock — which the deadlock benchmarks demonstrate. It breaks the
// symmetry condition: philosophers are distinguishable by color.
type Colored struct{}

// NewColored returns the colored-philosophers baseline.
func NewColored() *Colored { return &Colored{} }

// Name implements sim.Program.
func (*Colored) Name() string { return "colored" }

// Symmetric implements sim.Program.
func (*Colored) Symmetric() bool { return false }

// Init implements sim.Program.
func (*Colored) Init(*sim.World) {}

// Outcomes implements sim.Program.
func (*Colored) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	first := w.Topo.Left(p)
	if p%2 == 1 {
		first = w.Topo.Right(p)
	}
	return holdAndWait("colored", w, p, buf, first, "take first fork (by color)", "take second fork (by color)")
}

// holdAndWait appends the outcome set of the ordered-forks, naive and
// colored baselines, which differ only in their first fork and labels:
//
//  1. think
//  2. fork := first; if isFree(fork) then take(fork) else goto 2
//  3. if isFree(other(fork)) then take(other(fork)) else goto 3
//  4. eat
//  5. release(fork); release(other(fork)); goto 1
func holdAndWait(name string, w *sim.World, p graph.PhilID, buf []sim.Outcome, first graph.ForkID, takeFirst, takeSecond string) []sim.Outcome {
	switch pc := w.Phils[p].PC; pc {
	case 1:
		return sim.ThinkOutcomes(w, p, buf, 2)
	case 2:
		return one(buf, takeFirst, int64(first), applyHoldFirst)
	case 3:
		return one(buf, takeSecond, 0, applyHoldSecond)
	case 4:
		return one(buf, "eat", 0, applyEat)
	case 5:
		return one(buf, "release forks", 0, applyRelease)
	default:
		panic(fmt.Sprintf("algo: %s philosopher %d has invalid pc %d", name, p, pc))
	}
}

// The hold-and-wait steps take the first fork, given as arg, and then the
// other one, holding the first while busy-waiting for the second. They serve
// every baseline that takes its forks one at a time: ordered-forks, naive,
// colored and ticket-box.

func applyHoldFirst(w *sim.World, p graph.PhilID, arg int64) {
	f := graph.ForkID(arg)
	w.Commit(p, f)
	if w.TryTake(p, f) {
		w.MarkHoldingFirst(p)
		w.Phils[p].PC++
	}
}

func applyHoldSecond(w *sim.World, p graph.PhilID, _ int64) {
	if w.TryTake(p, w.Topo.OtherFork(p, w.Phils[p].First)) {
		w.MarkHoldingSecond(p)
		w.StartEating(p)
		w.Phils[p].PC++
	}
	// else: hold the first fork and busy wait. Hierarchical allocation never
	// releases while waiting: under ordered-forks every philosopher holding a
	// fork waits for a higher-numbered one, so the wait-for relation follows
	// the fork order and cannot close a cycle. Naive's and colored's first
	// forks follow no global order, and the same wait deadlocks them.
}

// --- Central monitor ---

// monitorTokenGlobal is the index of the global register holding the monitor
// token: 0 when free, p+1 when philosopher p holds it.
const monitorTokenGlobal = 0

// CentralMonitor is the classical centralized solution: a single monitor
// serialises fork acquisition, and a philosopher that holds the monitor takes
// both forks atomically if both are free (otherwise it releases the monitor
// and retries). It trivially ensures progress but breaks full distribution.
type CentralMonitor struct{}

// NewCentralMonitor returns the central-monitor baseline.
func NewCentralMonitor() *CentralMonitor { return &CentralMonitor{} }

// Name implements sim.Program.
func (*CentralMonitor) Name() string { return "central-monitor" }

// Symmetric implements sim.Program: the code is identical for every
// philosopher, but the solution is not fully distributed (shared monitor), so
// it does not satisfy the paper's conditions.
func (*CentralMonitor) Symmetric() bool { return false }

// Init implements sim.Program.
func (*CentralMonitor) Init(w *sim.World) { w.EnsureGlobals(1) }

// Outcomes implements sim.Program: think, acquire the monitor, take both
// forks under it, eat, release.
func (*CentralMonitor) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	switch pc := w.Phils[p].PC; pc {
	case 1:
		return sim.ThinkOutcomes(w, p, buf, 2)
	case 2:
		return one(buf, "acquire monitor", 0, monApplyAcquire)
	case 3:
		return one(buf, "take both forks under monitor", 0, monApplyGrab)
	case 4:
		return one(buf, "eat", 0, applyEat)
	case 5:
		return one(buf, "release forks", 0, applyRelease)
	default:
		panic(fmt.Sprintf("algo: central-monitor philosopher %d has invalid pc %d", p, pc))
	}
}

func monApplyAcquire(w *sim.World, p graph.PhilID, _ int64) {
	if w.Global(monitorTokenGlobal) == 0 {
		w.SetGlobal(monitorTokenGlobal, int64(p)+1)
		w.Phils[p].PC++
	}
}

func monApplyGrab(w *sim.World, p graph.PhilID, _ int64) {
	left, right := w.Topo.Left(p), w.Topo.Right(p)
	if w.IsFree(left) && w.IsFree(right) {
		w.Commit(p, left)
		w.TryTake(p, left)
		w.MarkHoldingFirst(p)
		w.TryTake(p, right)
		w.MarkHoldingSecond(p)
		w.StartEating(p)
		w.SetGlobal(monitorTokenGlobal, 0)
		w.Phils[p].PC++
	} else {
		w.SetGlobal(monitorTokenGlobal, 0)
		w.Phils[p].PC-- // back to acquiring the monitor
	}
}

// --- Ticket box ---

// ticketsGlobal is the index of the global register holding the number of
// available tickets.
const ticketsGlobal = 0

// TicketBox is the classical solution via a box of n−1 tickets: a hungry
// philosopher must obtain a ticket before acquiring its forks (left then
// right, holding while waiting) and returns the ticket after eating. On the
// classic ring, limiting the number of simultaneous contenders to n−1
// prevents the circular wait; the bound does not generalize to arbitrary
// topologies. It breaks full distribution (the ticket box is shared).
type TicketBox struct{}

// NewTicketBox returns the ticket-box baseline.
func NewTicketBox() *TicketBox { return &TicketBox{} }

// Name implements sim.Program.
func (*TicketBox) Name() string { return "ticket-box" }

// Symmetric implements sim.Program.
func (*TicketBox) Symmetric() bool { return false }

// Init implements sim.Program: the box starts with one ticket fewer than
// there are philosophers.
func (*TicketBox) Init(w *sim.World) {
	w.EnsureGlobals(1)
	w.SetGlobal(ticketsGlobal, int64(w.Topo.NumPhilosophers()-1))
}

// Outcomes implements sim.Program: think, acquire a ticket, take the left
// fork and then the right one through the hold-and-wait steps, eat, release
// the forks and return the ticket.
func (*TicketBox) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	switch pc := w.Phils[p].PC; pc {
	case 1:
		return sim.ThinkOutcomes(w, p, buf, 2)
	case 2:
		return one(buf, "acquire ticket", 0, tktApplyAcquire)
	case 3:
		return one(buf, "take left fork", int64(w.Topo.Left(p)), applyHoldFirst)
	case 4:
		return one(buf, "take right fork", 0, applyHoldSecond)
	case 5:
		return one(buf, "eat", 0, applyEat)
	case 6:
		return one(buf, "release forks and ticket", 0, tktApplyRelease)
	default:
		panic(fmt.Sprintf("algo: ticket-box philosopher %d has invalid pc %d", p, pc))
	}
}

func tktApplyAcquire(w *sim.World, p graph.PhilID, _ int64) {
	if w.Global(ticketsGlobal) > 0 {
		w.SetGlobal(ticketsGlobal, w.Global(ticketsGlobal)-1)
		w.Phils[p].Aux[0] = 1
		w.Phils[p].PC++
	}
}

// tktApplyRelease is the shared release followed by returning the ticket.
func tktApplyRelease(w *sim.World, p graph.PhilID, arg int64) {
	applyRelease(w, p, arg)
	w.SetGlobal(ticketsGlobal, w.Global(ticketsGlobal)+1)
	w.Phils[p].Aux[0] = 0
}
