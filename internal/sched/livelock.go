package sched

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/sim"
)

// GreedyLivelock is the adversarial scheduling strategy used to reproduce the
// negative results of the paper (the Section 3 example and Theorems 1 and 2):
// it tries to prevent every philosopher in a protected set from ever eating,
// using only scheduling decisions (it cannot influence the random draws).
//
// The strategy distils the rotating walks of the paper's Figures 2 and 3 into
// a priority rule evaluated on the full system state each step. Each step
// first classifies every philosopher and every fork once into bitsets (the
// steerable and firstCovered sets only when rules 1 to 3 do not decide):
//
//   - committed: hungry, with a selected first fork it does not hold yet;
//   - reserve: hungry, neither holding nor having selected a fork — the only
//     philosophers whose future commitment the adversary can still steer
//     (by choosing when to schedule their random draw);
//   - onlyFirst: holds its first fork but not its second;
//   - couldEat: onlyFirst with its second fork free — scheduling it would
//     let it start eating;
//   - firstFree, secondFree: its selected first or second fork is free
//     (World.IsFree, which also sees forks reserved by an in-flight grant);
//   - thinking, eating, and unprotected (fixed per topology);
//   - the fork sets free; danger, the second forks of the protected
//     philosophers in couldEat ("dangerous" philosophers); covered, the first
//     forks of committed philosophers (a queued taker picks such a fork up as
//     soon as it is released); and steerable, the forks of reserves;
//   - firstDanger (committed to a danger fork), nearDanger (a reserve at a
//     danger fork) and firstCovered (onlyFirst on a covered fork).
//
// The rules are then tried in order, and the first non-empty set wins
// (&^ is "and not"):
//
//  1. let a useful unprotected philosopher run (Theorem 1's walk repeatedly
//     feeds the extra philosopher outside the ring so it keeps the shared
//     fork busy): unprotected & (eating | couldEat | firstDanger | nearDanger);
//  2. defuse: a philosopher committed to a free fork that a dangerous
//     philosopher needs takes it away: firstDanger & firstFree;
//  3. safe take: committed to a free fork whose other fork is held (it can
//     never reach a meal from there): committed & firstFree &^ secondFree;
//  4. steer a reserve at a dangerous fork (its draw may commit it to that
//     fork; a wrong draw either parks it harmlessly on a held fork or enters
//     the free-take/release retry loop of the paper's walk): the forks
//     danger & steerable;
//  5. cover: steer a reserve at an uncovered held fork, so that when the
//     holder is eventually forced to release it there is a queued taker: the
//     forks steerable &^ free &^ covered;
//  6. advance a retry loop: a philosopher that holds a fork wanted by a
//     queued taker and whose own second fork is held can release safely:
//     firstCovered &^ secondFree;
//  7. and 8. burn time harmlessly: wake a thinking philosopher or schedule a
//     parked one (committed to a held fork — a pure busy-wait no-op):
//     thinking | committed &^ firstFree;
//  9. build the walk's starting pattern: while no fork is held, steer a
//     reserve to an uncovered fork (the forks steerable &^ covered), else let
//     a committed philosopher take its fork (committed); held forks or not,
//     then advance a reserve or a committed philosopher (reserve | committed);
//  10. schedule a holder whose second fork is held, safe even without a
//     queued taker: onlyFirst &^ secondFree;
//  11. concede only when every remaining choice would feed a protected
//     philosopher: every philosopher &^ eating &^ couldEat.
//
// Within a philosopher rule the least recently scheduled member wins (a
// missing World.LastScheduled entry counts as −1, the lowest index breaks
// ties), so that the advisor's voluntary choices keep everyone's fairness
// clock reset and no burst of forced schedulings (over which it has no
// control) ever builds up. A steering rule takes the lowest fork of its set
// and schedules that fork's best reserve: one whose other fork is free scores
// 2 (a wrong draw then leads back to the choice step through the
// take/fail/release retry loop, so the steering can be repeated), an
// unprotected one 1 more, and the lowest index wins ties.
//
// Wrap the advisor in BoundedFair (fixed fairness window, the honest choice
// for finite experiments) or Stubborn (the paper's growing-stubbornness
// construction) to obtain a fair scheduler.
type GreedyLivelock struct {
	// Protected is the set of philosophers that must not eat; nil or empty
	// means every philosopher is protected (the Section 3 example). It is
	// read when the advisor first meets a topology.
	Protected []graph.PhilID

	// Per-step sets, sized for topo on the first Advise call that meets it
	// and reused, so the adversary allocates nothing in steady state. phils
	// holds one word of every philosopher set per 64 philosophers; free,
	// danger, covered and steerable one bit per fork.
	topo                             *graph.Topology
	other                            []graph.ForkID // Left(p) ^ Right(p), so other[p]^f is p's fork that is not f
	phils                            []philSets
	forks                            []uint64 // backs the four fork sets
	free, danger, covered, steerable []uint64
	anyUnprotected                   bool // unprotected is not empty
	held, anyDanger                  bool // some fork is not free; danger is not empty
}

// philSets is one word of each per-philosopher set: bit j of the i-th word
// stands for philosopher 64i+j. all and unprotected are fixed per topology;
// GreedyLivelock's doc comment defines the others.
type philSets struct {
	all, unprotected                      uint64
	thinking, eating, committed, reserve  uint64
	onlyFirst, couldEat                   uint64
	firstFree, secondFree                 uint64
	firstDanger, nearDanger, firstCovered uint64
}

// NewGreedyLivelock returns the livelock advisor protecting the given
// philosophers (all philosophers when none are given).
func NewGreedyLivelock(protected ...graph.PhilID) *GreedyLivelock {
	return &GreedyLivelock{Protected: protected}
}

// Name implements Advisor.
func (g *GreedyLivelock) Name() string {
	if len(g.Protected) == 0 {
		return "greedy-livelock"
	}
	return fmt.Sprintf("greedy-livelock-%d-protected", len(g.Protected))
}

// Advise implements Advisor.
func (g *GreedyLivelock) Advise(w *sim.World) graph.PhilID {
	g.classify(w)
	topo := w.Topo

	// Rule 1: useful unprotected philosopher.
	if g.anyUnprotected {
		if p := g.oldest(w, ruleUseful); p != graph.NoPhil {
			return p
		}
	}
	// Rule 2: defuse — take a dangerous fork away from the endangered holder.
	if g.anyDanger {
		if p := g.oldest(w, ruleDefuse); p != graph.NoPhil {
			return p
		}
	}
	// Rule 3: safe take — committed to a free fork, other fork held.
	if p := g.oldest(w, ruleSafeTake); p != graph.NoPhil {
		return p
	}
	g.classifyForks(w)
	// Rule 4: steer a reserve towards a dangerous fork.
	for i, d := range g.danger {
		if c := d & g.steerable[i]; c != 0 {
			return g.bestReserve(topo, lowest(i, c))
		}
	}
	// Rule 5: cover — make sure every held fork has a queued taker before its
	// holder is forced to release it.
	for i, s := range g.steerable {
		if c := s &^ g.free[i] &^ g.covered[i]; c != 0 {
			return g.bestReserve(topo, lowest(i, c))
		}
	}
	// Rule 6: advance a retry loop.
	if p := g.oldest(w, ruleRetry); p != graph.NoPhil {
		return p
	}
	// Rules 7+8: harmless time-burners, thinking and parked philosophers.
	if p := g.oldest(w, ruleIdle); p != graph.NoPhil {
		return p
	}
	// Rule 9: pattern formation. While no fork is held, the adversary builds
	// the walk's starting configuration: it first steers reserves so that
	// every fork has a committed prospective holder (the paper's State 1 has
	// one philosopher committed to each fork), and only then lets a committed
	// philosopher take its fork — the resulting chain of "dangerous" holders
	// resolves through rules 2 and 3 because every needed fork has a taker.
	if !g.held {
		for i, s := range g.steerable {
			if c := s &^ g.covered[i]; c != 0 {
				return g.bestReserve(topo, lowest(i, c))
			}
		}
		if p := g.oldest(w, ruleCommitted); p != graph.NoPhil {
			return p
		}
	}
	// Nothing better to do: advance reserves and committed philosophers.
	if p := g.oldest(w, ruleBreak); p != graph.NoPhil {
		return p
	}
	// Rule 10: a holder whose second fork is held is safe without a taker.
	if p := g.oldest(w, ruleHolder); p != graph.NoPhil {
		return p
	}
	// Rule 11: everything left is dangerous or eating; concede.
	if p := g.oldest(w, ruleConcede); p != graph.NoPhil {
		return p
	}
	return 0
}

// The philosopher rules, each the set expression philSets.rule evaluates.
const (
	ruleUseful = iota
	ruleDefuse
	ruleSafeTake
	ruleRetry
	ruleIdle
	ruleCommitted
	ruleBreak
	ruleHolder
	ruleConcede
)

// rule returns this word of the philosopher rule's candidate set.
func (x *philSets) rule(r int) uint64 {
	switch r {
	case ruleUseful:
		return x.unprotected & (x.eating | x.couldEat | x.firstDanger | x.nearDanger)
	case ruleDefuse:
		return x.firstDanger & x.firstFree
	case ruleSafeTake:
		return x.committed & x.firstFree &^ x.secondFree
	case ruleRetry:
		return x.firstCovered &^ x.secondFree
	case ruleIdle:
		return x.thinking | x.committed&^x.firstFree
	case ruleCommitted:
		return x.committed
	case ruleBreak:
		return x.reserve | x.committed
	case ruleHolder:
		return x.onlyFirst &^ x.secondFree
	default: // ruleConcede
		return x.all &^ x.eating &^ x.couldEat
	}
}

// oldest returns the member of rule r's set that was scheduled least
// recently (a missing LastScheduled entry counts as −1; the lowest index wins
// ties), or graph.NoPhil for an empty set.
func (g *GreedyLivelock) oldest(w *sim.World, r int) graph.PhilID {
	last := w.LastScheduled
	best := graph.NoPhil
	var bestLast int64
	for i := range g.phils {
		for c := g.phils[i].rule(r); c != 0; c &= c - 1 {
			p := i<<6 | bits.TrailingZeros64(c)
			l := int64(-1)
			if p < len(last) {
				l = last[p]
			}
			if best == graph.NoPhil || l < bestLast {
				best, bestLast = graph.PhilID(p), l
			}
		}
	}
	return best
}

// bestReserve returns the reserve at fork f that steering prefers: its other
// fork free scores 2, unprotected 1 more, and the lowest index wins ties.
// The caller picks f from the steerable set, so a reserve exists.
func (g *GreedyLivelock) bestReserve(topo *graph.Topology, f graph.ForkID) graph.PhilID {
	best, bestScore := graph.NoPhil, -1
	for _, p := range topo.PhilosophersAt(f) {
		x, b := &g.phils[p>>6], bit(int(p))
		if x.reserve&b == 0 {
			continue
		}
		score := 0
		if has(g.free, topo.OtherFork(p, f)) {
			score += 2
		}
		if x.unprotected&b != 0 {
			score++
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// classify fills the sets that rules 1 to 3 read: one pass over the forks,
// one over each word of philosophers, and walks over the set bits of the
// holders and the committed philosophers for the sets that other
// philosophers' forks decide.
func (g *GreedyLivelock) classify(w *sim.World) {
	topo := w.Topo
	if topo != g.topo {
		g.size(topo)
	}
	g.held = g.freeForks(w)

	// The fork sets are written only by the walks, never by the pass over a
	// word's philosophers, which keeps its flags in registers.
	phils := w.Phils
	g.anyDanger = false
	for i := range g.phils {
		lo := i << 6
		x := &g.phils[i]
		x.thinking, x.eating, x.committed, x.reserve, x.onlyFirst = ownSets(phils[lo:min(lo+64, len(phils))])
		x.secondFree = g.holders(phils, lo, x.onlyFirst, x.unprotected)
		x.couldEat = x.onlyFirst & x.secondFree
		g.anyDanger = g.anyDanger || x.couldEat&^x.unprotected != 0
		firstFree, secondFree := g.takers(phils, lo, x.committed)
		x.firstFree, x.secondFree = firstFree, x.secondFree|secondFree
	}
	for i := range g.phils {
		x := &g.phils[i]
		x.firstDanger, x.nearDanger = 0, 0
		if g.anyDanger {
			x.firstDanger = firstIn(g.danger, phils, i<<6, x.committed)
			x.nearDanger = g.nearDanger(topo, i<<6, x.reserve&x.unprotected)
		}
	}
}

// classifyForks fills the sets that only rules 4 and later read, steerable
// and firstCovered, so that a decision by rule 2 or 3 skips their walks.
func (g *GreedyLivelock) classifyForks(w *sim.World) {
	for i := range g.phils {
		x := &g.phils[i]
		g.reserves(w.Topo, i<<6, x.reserve)
		x.firstCovered = firstIn(g.covered, w.Phils, i<<6, x.onlyFirst)
	}
}

// freeForks fills free from World.IsFree, clears the other fork sets and
// reports whether some fork is held.
func (g *GreedyLivelock) freeForks(w *sim.World) (held bool) {
	k := len(w.Forks)
	for i := range g.free {
		lo := i << 6
		var word, b uint64 = 0, 1
		for f := lo; f < min(lo+64, k); f++ {
			word |= -b2u(w.IsFree(graph.ForkID(f))) & b
			b <<= 1
		}
		held = held || word != b-1
		g.free[i], g.danger[i], g.covered[i], g.steerable[i] = word, 0, 0, 0
	}
	return held
}

// ownSets classifies up to 64 philosophers from their own states: bit j
// stands for phils[j]. Each philosopher's five flags go into one byte, and
// every set then gathers its flag from eight philosophers at once.
func ownSets(phils []sim.PhilState) (thinking, eating, committed, reserve, onlyFirst uint64) {
	var flags [64]byte
	for j := range phils {
		p := &phils[j]
		hungry, selected, holds := b2b(p.Phase == sim.Hungry), b2b(p.First != graph.NoFork), b2b(p.HasFirst)
		flags[j] = b2b(p.Phase == sim.Thinking) | b2b(p.Phase == sim.Eating)<<1 |
			(hungry&selected&^holds)<<2 | (hungry&^(selected|holds))<<3 | (holds&^b2b(p.HasSecond))<<4
	}
	for q := 0; q < len(phils); q += 8 {
		v := binary.LittleEndian.Uint64(flags[q:])
		thinking |= gather(v) << q
		eating |= gather(v>>1) << q
		committed |= gather(v>>2) << q
		reserve |= gather(v>>3) << q
		onlyFirst |= gather(v>>4) << q
	}
	return
}

// gather returns bit 0 of each byte of v as one byte, byte i's bit as bit
// i: the mask keeps those eight bits, and the multiplication adds a copy of
// bit 8i shifted by 7(7-i)+7, all to distinct bits without carries, so that
// bit i lands on bit 56+i.
func gather(v uint64) uint64 { return (v & 0x0101010101010101 * 0x0102040810204080) >> 56 }

// holders returns which holders in c (the onlyFirst bits of the word at
// philosopher lo) have their second fork free, and adds those forks of the
// protected ones to danger.
func (g *GreedyLivelock) holders(phils []sim.PhilState, lo int, c, unprotected uint64) (secondFree uint64) {
	for ; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		second := g.other[lo+j] ^ phils[lo+j].First
		if has(g.free, second) {
			secondFree |= 1 << j
			if unprotected&(1<<j) == 0 {
				add(g.danger, second)
			}
		}
	}
	return secondFree
}

// takers returns which committed philosophers in c have their first and
// their second fork free, and adds their first forks to covered.
func (g *GreedyLivelock) takers(phils []sim.PhilState, lo int, c uint64) (firstFree, secondFree uint64) {
	for ; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		first := phils[lo+j].First
		add(g.covered, first)
		firstFree |= bitOf(g.free, first) << j
		secondFree |= bitOf(g.free, g.other[lo+j]^first) << j
	}
	return firstFree, secondFree
}

// reserves adds the forks of the reserves in c to steerable.
func (g *GreedyLivelock) reserves(topo *graph.Topology, lo int, c uint64) {
	for ; c != 0; c &= c - 1 {
		p := graph.PhilID(lo + bits.TrailingZeros64(c))
		add(g.steerable, topo.Left(p))
		add(g.steerable, topo.Right(p))
	}
}

// nearDanger returns which reserves in c have a fork in danger.
func (g *GreedyLivelock) nearDanger(topo *graph.Topology, lo int, c uint64) (near uint64) {
	for ; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		p := graph.PhilID(lo + j)
		near |= (bitOf(g.danger, topo.Left(p)) | bitOf(g.danger, topo.Right(p))) << j
	}
	return near
}

// firstIn returns which philosophers in c have their selected fork in set.
func firstIn(set []uint64, phils []sim.PhilState, lo int, c uint64) (in uint64) {
	for ; c != 0; c &= c - 1 {
		j := bits.TrailingZeros64(c)
		in |= bitOf(set, phils[lo+j].First) << j
	}
	return in
}

// size sizes the sets for topo, reusing their capacity, and fixes the
// per-topology words: every philosopher, and the unprotected ones (none when
// Protected is empty; a protected ID outside the topology protects nobody).
func (g *GreedyLivelock) size(topo *graph.Topology) {
	g.topo = topo
	n, k := topo.NumPhilosophers(), topo.NumForks()
	nw, kw := (n+63)/64, (k+63)/64
	if cap(g.phils) < nw {
		g.phils = make([]philSets, nw)
	}
	g.phils = g.phils[:nw]
	g.other = g.other[:0]
	for p := 0; p < n; p++ {
		g.other = append(g.other, topo.Left(graph.PhilID(p))^topo.Right(graph.PhilID(p)))
	}
	if cap(g.forks) < 4*kw {
		g.forks = make([]uint64, 4*kw)
	}
	g.forks = g.forks[:4*kw]
	g.free, g.danger, g.covered, g.steerable = g.forks[:kw], g.forks[kw:2*kw], g.forks[2*kw:3*kw], g.forks[3*kw:]
	for i := range g.phils {
		all := ^uint64(0)
		if rest := n - i<<6; rest < 64 {
			all = bit(rest) - 1
		}
		g.phils[i] = philSets{all: all}
		if len(g.Protected) > 0 {
			g.phils[i].unprotected = all
		}
	}
	for _, p := range g.Protected {
		if p >= 0 && int(p) < n {
			g.phils[p>>6].unprotected &^= bit(int(p))
		}
	}
	g.anyUnprotected = false
	for i := range g.phils {
		g.anyUnprotected = g.anyUnprotected || g.phils[i].unprotected != 0
	}
}

// bit returns the mask of element i within its 64-element word.
func bit(i int) uint64 { return 1 << (uint(i) & 63) }

// lowest returns the lowest fork in word i of a fork set, given the word's
// non-zero value c.
func lowest(i int, c uint64) graph.ForkID { return graph.ForkID(i<<6 | bits.TrailingZeros64(c)) }

// bitOf returns 1 when fork f is in the set, and 0 otherwise.
func bitOf(set []uint64, f graph.ForkID) uint64 { return set[f>>6] >> (uint(f) & 63) & 1 }

// has reports whether fork f is in the set.
func has(set []uint64, f graph.ForkID) bool { return bitOf(set, f) != 0 }

// b2u and b2b return 1 for true and 0 for false; the compiler turns them
// into a zero extension, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// add adds fork f to the set s.
func add(s []uint64, f graph.ForkID) { s[f>>6] |= bit(int(f)) }
