package algo

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/sim"
)

// line is one line of the paper's pseudo-code tables. A table is the list of
// its lines, run by one step machine (table.Outcomes), and a philosopher's
// PhilState.PC is the number of the line it executes next. Every step
// advances the PC by one except three: a busy wait stays on its line, a
// failed second take goes back to the table's choice line (coin or
// higherNR), and release goes back to line 1.
type line uint8

const (
	// think: a scheduled thinking philosopher becomes hungry.
	think line = iota
	// request: insert(id, left.r); insert(id, right.r)
	request
	// coin: fork := random_choice(left, right)
	coin
	// higherNR: if left.nr > right.nr then fork := left else fork := right
	higherNR
	// takeFirst: if isFree(fork) then take(fork) else goto this line. In a
	// table with request lists the test is isFree(fork) and Cond(fork).
	takeFirst
	// renumber: if fork.nr = other(fork).nr then fork.nr := random[1, m]
	renumber
	// trySecond: if isFree(other(fork)) then take(other(fork))
	// else { release(fork); goto the choice line }
	trySecond
	// eat
	eat
	// unrequest: remove(id, left.r); remove(id, right.r)
	unrequest
	// sign: insert(id, left.g); insert(id, right.g)
	sign
	// release: release(fork); release(other(fork)); goto 1
	release
)

// lr1 is the first algorithm of Lehmann and Rabin (Table 1): a hungry
// philosopher randomly commits to one of its forks, busy-waits to take it,
// then tries the other fork once; on failure it releases the first fork and
// draws again. LR1 guarantees progress with probability 1 on the classic
// ring but not on generalized topologies (Theorem 1).
var lr1 = []line{think, coin, takeFirst, trySecond, eat, release}

// lr2 is the second (courteous) algorithm of Lehmann and Rabin, generalized
// as in Section 3.2 of the paper (Table 2): each fork carries a request list
// r and a guest book g; a philosopher announces its hunger in the request
// lists of both forks, and may take a fork only when no other requester has
// been waiting since before the philosopher's own last use of that fork
// (Cond(fork)). On the classic ring LR2 is lockout-free; Theorem 2 shows it
// fails on topologies containing a ring with two nodes joined by a third
// path. The table's line 10, goto 1, is folded into release.
var lr2 = []line{think, request, coin, takeFirst, trySecond, eat, unrequest, sign, release}

// gdp1 is the paper's progress algorithm (Table 3, Theorem 3). Every fork
// carries an integer field nr, initially 0. A hungry philosopher first
// selects the adjacent fork with the strictly larger nr (the right fork on a
// tie), busy-waits to take it, and — if the two adjacent forks have equal nr
// values — re-randomises the held fork's nr over [1, m] with m at least the
// total number of forks. It then tries the second fork once, releasing and
// restarting on failure. Randomising the numbers eventually makes the forks
// around every cycle pairwise distinct, after which the algorithm behaves
// like hierarchical resource allocation along the induced partial order and
// some philosopher must eat under any fair scheduler.
//
// (In the published Table 3 line 4 reads "fork := random[1,m]"; per the
// accompanying prose — "the philosopher may change the nr value of a fork
// when it finds that it is equal to the nr value of the other fork" — the
// assignment targets the held fork's nr field.)
var gdp1 = []line{think, higherNR, takeFirst, renumber, trySecond, eat, release}

// gdp2 is the paper's lockout-free algorithm (Table 4, Theorem 4): GDP1's
// random fork numbering combined with LR2's request lists and guest books, so
// that a philosopher that has just eaten defers to hungry neighbours that
// have not.
//
// (The published Table 4 prints line 4 without the Cond(fork) conjunct, but
// Section 5 introduces the request lists and guest books precisely so that
// "the test Cond(fork) is defined in the same way as in Section 3.2"; we
// therefore include the courtesy test on the first fork exactly as LR2 does.)
var gdp2 = []line{think, request, higherNR, takeFirst, renumber, trySecond, eat, unrequest, sign, release}

// argCond in the Outcome.Arg of a takeFirst or trySecond line asks for the
// courtesy test Cond(fork) on the fork it takes. The low byte of a
// trySecond Arg is the line a failed take goes back to.
const argCond int64 = 1 << 8

// table is the step machine running one pseudo-code table. It keeps no run
// state: everything a run changes lives in the World.
type table struct {
	name      string
	lines     []line
	opts      Options
	takeLabel string
	takeArg   int64 // takeFirst's Arg
	tryArg    int64 // trySecond's Arg
}

// newTable returns the program running lines under opts. A table with
// request lists is courteous: its takeFirst line tests Cond(fork), and its
// trySecond line too when CourtesyOnBothForks is set.
func newTable(name string, lines []line, opts Options) *table {
	a := &table{name: name, lines: lines, opts: opts, takeLabel: "take first fork"}
	if courteous(lines) {
		a.takeLabel = "take first fork (courteous)"
		a.takeArg = argCond
		if opts.CourtesyOnBothForks {
			a.tryArg = argCond
		}
	}
	choice := slices.IndexFunc(lines, func(l line) bool { return l == coin || l == higherNR })
	a.tryArg |= int64(choice + 1)
	return a
}

// courteous reports whether a table keeps request lists, and so tests
// Cond(fork).
func courteous(lines []line) bool { return slices.Contains(lines, request) }

// Name implements sim.Program.
func (a *table) Name() string { return a.name }

// Symmetric implements sim.Program: every table is symmetric and fully
// distributed (the nr fields, request lists and guest books live on the
// forks).
func (*table) Symmetric() bool { return true }

// SideSymmetric implements sim.SideSymmetricProgram: the fair coin treats
// left and right forks identically; the higherNR line's tie-break toward the
// right fork does not.
func (a *table) SideSymmetric() bool { return slices.Contains(a.lines, coin) }

// Init implements sim.Program. The tables need no state beyond NewWorld's
// defaults: every fork's nr starts at 0.
func (*table) Init(*sim.World) {}

// Outcomes implements sim.Program.
func (a *table) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	st := &w.Phils[p]
	if st.PC < 1 || int(st.PC) > len(a.lines) {
		panic(fmt.Sprintf("algo: %s philosopher %d has invalid pc %d", a.name, p, st.PC))
	}
	switch a.lines[st.PC-1] {
	case think:
		return sim.ThinkOutcomes(w, p, buf, st.PC+1)
	case request:
		return one(buf, "insert requests", 0, applyRequest)
	case coin:
		return append(buf,
			sim.Outcome{Prob: 0.5, Label: "commit left", Arg: int64(w.Topo.Left(p)), Apply: applyCommit},
			sim.Outcome{Prob: 0.5, Label: "commit right", Arg: int64(w.Topo.Right(p)), Apply: applyCommit},
		)
	case higherNR:
		return one(buf, "select higher-numbered fork", 0, applyHigherNR)
	case takeFirst:
		return one(buf, a.takeLabel, a.takeArg, applyTakeFirst)
	case renumber:
		if w.NR(st.First) != w.NR(w.Topo.OtherFork(p, st.First)) {
			return one(buf, "numbers already distinct", 0, applyNext)
		}
		return uniformNR(buf, a.opts.nrRange(w.Topo))
	case trySecond:
		return one(buf, "try second fork", a.tryArg, applyTrySecond)
	case eat:
		return one(buf, "eat", 0, applyEat)
	case unrequest:
		return one(buf, "remove requests", 0, applyUnrequest)
	case sign:
		return one(buf, "sign guest books", 0, applySign)
	default: // release
		return one(buf, "release forks", 0, applyRelease)
	}
}

// uniformNR appends the outcome set of fork.nr := random[1, m]: one outcome
// per value in [1, m], each with probability 1/m, carrying the value as Arg.
func uniformNR(buf []sim.Outcome, m int) []sim.Outcome {
	p := 1.0 / float64(m)
	for v := 1; v <= m; v++ {
		buf = append(buf, sim.Outcome{Prob: p, Label: nrLabel(v), Arg: int64(v), Apply: applyRenumber})
	}
	return buf
}

// nrLabels precomputes the labels of the common nr draws so that building the
// uniformNR outcome set allocates nothing; draws beyond the table (m beyond
// 256 forks, only reachable through explicit Options.M or very large
// topologies) fall back to fmt.
var nrLabels = func() [257]string {
	var labels [257]string
	for v := range labels {
		labels[v] = fmt.Sprintf("nr := %d", v)
	}
	return labels
}()

func nrLabel(v int) string {
	if v >= 0 && v < len(nrLabels) {
		return nrLabels[v]
	}
	//dplint:ok hotalloc cold fallback: only reachable for m beyond the 256-entry precomputed label table
	return fmt.Sprintf("nr := %d", v)
}

// The step functions below are the Apply functions of the lines. They are
// static, so building an outcome set allocates nothing, and the baselines
// share eat and release.

func applyNext(w *sim.World, p graph.PhilID, _ int64) { w.Phils[p].PC++ }

func applyRequest(w *sim.World, p graph.PhilID, _ int64) {
	w.Request(p, w.Topo.Left(p))
	w.Request(p, w.Topo.Right(p))
	w.Phils[p].PC++
}

func applyCommit(w *sim.World, p graph.PhilID, arg int64) {
	w.Commit(p, graph.ForkID(arg))
	w.Phils[p].PC++
}

func applyHigherNR(w *sim.World, p graph.PhilID, _ int64) {
	fork := w.Topo.Right(p)
	if left := w.Topo.Left(p); w.NR(left) > w.NR(fork) {
		fork = left
	}
	applyCommit(w, p, int64(fork))
}

func applyTakeFirst(w *sim.World, p graph.PhilID, arg int64) {
	st := &w.Phils[p]
	if arg&argCond != 0 && w.IsFree(st.First) && !w.Cond(p, st.First) {
		w.RecordBlockedByCond(p, st.First)
		return
	}
	if w.TryTake(p, st.First) {
		w.MarkHoldingFirst(p)
		st.PC++
	}
	// else: busy wait, TryTake recorded the fork as busy.
}

func applyRenumber(w *sim.World, p graph.PhilID, arg int64) {
	w.SetNR(p, w.Phils[p].First, int(arg))
	w.Phils[p].PC++
}

func applyTrySecond(w *sim.World, p graph.PhilID, arg int64) {
	st := &w.Phils[p]
	second := w.Topo.OtherFork(p, st.First)
	allowed := arg&argCond == 0 || w.Cond(p, second)
	if allowed && w.TryTake(p, second) {
		w.MarkHoldingSecond(p)
		w.StartEating(p)
		st.PC++
		return
	}
	if !allowed {
		w.RecordBlockedByCond(p, second)
	}
	w.Release(p, st.First)
	w.ClearSelection(p)
	st.PC = uint8(arg)
}

func applyEat(w *sim.World, p graph.PhilID, _ int64) {
	w.FinishEating(p)
	w.Phils[p].PC++
}

func applyUnrequest(w *sim.World, p graph.PhilID, _ int64) {
	w.Unrequest(p, w.Topo.Left(p))
	w.Unrequest(p, w.Topo.Right(p))
	w.Phils[p].PC++
}

func applySign(w *sim.World, p graph.PhilID, _ int64) {
	w.SignGuestBook(p, w.Topo.Left(p))
	w.SignGuestBook(p, w.Topo.Right(p))
	w.Phils[p].PC++
}

func applyRelease(w *sim.World, p graph.PhilID, _ int64) {
	w.ReleaseAll(p)
	w.BackToThinking(p, 1)
}
