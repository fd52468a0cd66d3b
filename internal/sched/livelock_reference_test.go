package sched

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// referenceLivelock is GreedyLivelock's advisor as it was before the rules
// became bitset expressions: every predicate is a World method call, and each
// rule scans the philosophers (or the forks) again. It is kept verbatim, but
// for its type names, as the reference that TestGreedyLivelockMatchesReference
// compares the production advisor with, decision by decision.
type referenceLivelock struct {
	Protected []graph.PhilID

	protected map[graph.PhilID]bool

	dangerForks []bool
	committedTo []int
	reserves    []graph.PhilID
	cand        []graph.PhilID
}

// isProtected reports whether p is in the protected set.
func (g *referenceLivelock) isProtected(p graph.PhilID) bool {
	if len(g.Protected) == 0 {
		return true
	}
	if g.protected == nil {
		g.protected = make(map[graph.PhilID]bool, len(g.Protected))
		for _, q := range g.Protected {
			g.protected[q] = true
		}
	}
	return g.protected[p]
}

// referenceAnalysis is the per-step classification of the system state used by the
// advisor's rules. It views the advisor's reusable scratch tables:
// dangerForks and committedTo are indexed by fork ID.
type referenceAnalysis struct {
	dangerForks []bool
	anyDanger   bool
	// committedTo[f] counts philosophers committed (but not holding) to f.
	committedTo []int
	reserves    []graph.PhilID
}

func (g *referenceLivelock) analyse(w *sim.World) referenceAnalysis {
	k := w.Topo.NumForks()
	if cap(g.dangerForks) < k {
		g.dangerForks = make([]bool, k)
		g.committedTo = make([]int, k)
	}
	g.dangerForks = g.dangerForks[:k]
	g.committedTo = g.committedTo[:k]
	for f := 0; f < k; f++ {
		g.dangerForks[f] = false
		g.committedTo[f] = 0
	}
	g.reserves = g.reserves[:0]
	a := referenceAnalysis{dangerForks: g.dangerForks, committedTo: g.committedTo}
	for p := range w.Phils {
		pid := graph.PhilID(p)
		if g.isProtected(pid) && w.CouldEatNext(pid) {
			a.dangerForks[w.SecondForkOf(pid)] = true
			a.anyDanger = true
		}
		if w.IsCommitted(pid) {
			a.committedTo[w.FirstForkOf(pid)]++
		}
		st := &w.Phils[pid]
		if st.Phase == sim.Hungry && !st.HasFirst && !w.IsCommitted(pid) {
			g.reserves = append(g.reserves, pid)
		}
	}
	a.reserves = g.reserves
	return a
}

// referenceOldest returns the candidate that was scheduled least recently, so that the
// advisor's voluntary choices keep everyone's fairness clock reset and no
// burst of forced schedulings (over which the advisor has no control) ever
// builds up. Returns graph.NoPhil for an empty candidate list.
func referenceOldest(w *sim.World, candidates []graph.PhilID) graph.PhilID {
	best := graph.NoPhil
	var bestLast int64
	for _, pid := range candidates {
		last := int64(-1)
		if int(pid) < len(w.LastScheduled) {
			last = w.LastScheduled[pid]
		}
		if best == graph.NoPhil || last < bestLast {
			best = pid
			bestLast = last
		}
	}
	return best
}

// steerTarget picks a reserve adjacent to fork f, preferring reserves whose
// other fork is free (a wrong draw then leads back to the choice step via the
// take/fail/release retry loop, so the steering can be repeated) and
// unprotected reserves. Returns graph.NoPhil when no reserve is adjacent.
func (g *referenceLivelock) steerTarget(w *sim.World, an referenceAnalysis, f graph.ForkID) graph.PhilID {
	best := graph.NoPhil
	bestScore := -1
	for _, pid := range an.reserves {
		left, right := w.Topo.Left(pid), w.Topo.Right(pid)
		if left != f && right != f {
			continue
		}
		other := left
		if other == f {
			other = right
		}
		score := 0
		if w.IsFree(other) {
			score += 2 // retriable steering
		}
		if !g.isProtected(pid) {
			score++
		}
		if score > bestScore {
			bestScore = score
			best = pid
		}
	}
	return best
}

// Advise implements Advisor.
func (g *referenceLivelock) Advise(w *sim.World) graph.PhilID {
	n := len(w.Phils)
	an := g.analyse(w)

	// Rule 1: useful unprotected philosopher.
	rule1 := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if g.isProtected(pid) {
			continue
		}
		st := &w.Phils[pid]
		switch {
		case st.Phase == sim.Eating,
			w.CouldEatNext(pid),
			an.anyDanger && w.IsCommitted(pid) && an.dangerForks[st.First],
			an.anyDanger && st.Phase == sim.Hungry && !st.HasFirst && !w.IsCommitted(pid) &&
				(an.dangerForks[w.Topo.Left(pid)] || an.dangerForks[w.Topo.Right(pid)]):
			rule1 = append(rule1, pid)
		}
	}
	g.cand = rule1
	if pid := referenceOldest(w, rule1); pid != graph.NoPhil {
		return pid
	}

	// Rule 2: defuse — take a dangerous fork away from the endangered holder.
	if an.anyDanger {
		defusers := g.cand[:0]
		for p := 0; p < n; p++ {
			pid := graph.PhilID(p)
			if w.IsCommitted(pid) && an.dangerForks[w.FirstForkOf(pid)] && w.IsFree(w.FirstForkOf(pid)) {
				defusers = append(defusers, pid)
			}
		}
		g.cand = defusers
		if pid := referenceOldest(w, defusers); pid != graph.NoPhil {
			return pid
		}
	}

	// Rule 3: safe take — committed to a free fork, other fork held.
	takers := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if !w.IsCommitted(pid) {
			continue
		}
		if w.IsFree(w.FirstForkOf(pid)) && !w.IsFree(w.SecondForkOf(pid)) {
			takers = append(takers, pid)
		}
	}
	g.cand = takers
	if pid := referenceOldest(w, takers); pid != graph.NoPhil {
		return pid
	}

	// Rule 4: steer a reserve towards a dangerous fork (in fork-ID order, so
	// the advisor is deterministic).
	if an.anyDanger {
		for f := 0; f < len(an.dangerForks); f++ {
			if !an.dangerForks[f] {
				continue
			}
			if target := g.steerTarget(w, an, graph.ForkID(f)); target != graph.NoPhil {
				return target
			}
		}
	}

	// Rule 5: cover — make sure every held fork has a queued taker before its
	// holder is forced to release it.
	for f := 0; f < w.Topo.NumForks(); f++ {
		fid := graph.ForkID(f)
		if w.IsFree(fid) || an.committedTo[fid] > 0 {
			continue
		}
		if target := g.steerTarget(w, an, fid); target != graph.NoPhil {
			return target
		}
	}

	// Rule 6: advance a retry loop — a philosopher holding a fork that a
	// queued taker wants, with its own second fork held, can release safely.
	retriers := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if !w.HoldsOnlyFirst(pid) {
			continue
		}
		first := w.FirstForkOf(pid)
		second := w.SecondForkOf(pid)
		if !w.IsFree(second) && an.committedTo[first] > 0 {
			retriers = append(retriers, pid)
		}
	}
	g.cand = retriers
	if pid := referenceOldest(w, retriers); pid != graph.NoPhil {
		return pid
	}

	// Rules 7+8: harmless time-burners — thinking philosophers and parked
	// philosophers (committed to a held fork, a pure busy-wait). Scheduling
	// the least recently scheduled one keeps fairness pressure from building
	// up behind the adversary's back.
	idle := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if w.Phils[pid].Phase == sim.Thinking {
			idle = append(idle, pid)
			continue
		}
		if w.IsCommitted(pid) && !w.IsFree(w.FirstForkOf(pid)) {
			idle = append(idle, pid)
		}
	}
	g.cand = idle
	if pid := referenceOldest(w, idle); pid != graph.NoPhil {
		return pid
	}

	// Rule 9: pattern formation. While no fork is held, the adversary builds
	// the walk's starting configuration: it first steers reserves so that
	// every fork has a committed prospective holder (the paper's State 1 has
	// one philosopher committed to each fork), and only then lets a committed
	// philosopher take its fork — the resulting chain of "dangerous" holders
	// resolves through rules 2 and 3 because every needed fork has a taker.
	heldCount := 0
	for f := 0; f < w.Topo.NumForks(); f++ {
		if !w.IsFree(graph.ForkID(f)) {
			heldCount++
		}
	}
	if heldCount == 0 {
		for f := 0; f < w.Topo.NumForks(); f++ {
			fid := graph.ForkID(f)
			if an.committedTo[fid] > 0 {
				continue
			}
			if target := g.steerTarget(w, an, fid); target != graph.NoPhil {
				return target
			}
		}
		committed := g.cand[:0]
		for p := 0; p < n; p++ {
			pid := graph.PhilID(p)
			if w.IsCommitted(pid) {
				committed = append(committed, pid)
			}
		}
		g.cand = committed
		if pid := referenceOldest(w, committed); pid != graph.NoPhil {
			return pid
		}
	}

	// Rule 9b: nothing better to do — advance reserves and committed
	// philosophers (oldest first) to keep the system moving.
	breaking := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		st := &w.Phils[pid]
		if st.Phase == sim.Hungry && !st.HasFirst {
			breaking = append(breaking, pid)
		}
	}
	g.cand = breaking
	if pid := referenceOldest(w, breaking); pid != graph.NoPhil {
		return pid
	}

	// Rule 10: a philosopher holding its first fork with the second held can
	// always be scheduled safely even without a queued taker.
	holders := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if w.HoldsOnlyFirst(pid) && !w.IsFree(w.SecondForkOf(pid)) {
			holders = append(holders, pid)
		}
	}
	g.cand = holders
	if pid := referenceOldest(w, holders); pid != graph.NoPhil {
		return pid
	}

	// Rule 11: everything left is dangerous or eating; concede.
	rest := g.cand[:0]
	for p := 0; p < n; p++ {
		pid := graph.PhilID(p)
		if !w.CouldEatNext(pid) && !w.IsEating(pid) {
			rest = append(rest, pid)
		}
	}
	g.cand = rest
	if pid := referenceOldest(w, rest); pid != graph.NoPhil {
		return pid
	}
	return 0
}
