package modelcheck

import (
	"slices"
	"sync"

	"repro/internal/graphalg"
)

// This file binds the generic analyses of internal/graphalg to the explored
// dining MDP and memoizes them. StateSpace implements graphalg.StateView
// over its dense numbering (see explore.go), and every analysis here runs as
// a worklist algorithm over the space's reverse-CSR predecessor index
// (PredecessorIndex); the graph and game algorithms themselves have no
// knowledge of this package.
//
// A space never changes after exploration, so neither does any analysis of
// it. Each one is therefore computed at most once per space and kept on it:
// the predecessor index, the deadlock states, the dead-region states, the
// starvation trap per protected set (keyed by the set's eating bitmask) and
// the shortest path per counterexample target. Every property of one
// Engine.Check run shares them — lockout-freedom with one protected
// philosopher reuses starvation-trap's analysis — and so does every later
// check of a cached space: a dpserve cache hit only formats stored verdicts
// and rebuilds counterexample traces from stored paths. The kept results
// are small next to the space (a trap is a few counts, a path its steps)
// except the deadlock and dead-region lists, which are bounded by the state
// count and empty for the paper's algorithms.
//
// Each memo cell has sync.OnceValue semantics: concurrent first callers wait
// for one computation, and if it panicked every later caller panics with the
// same value instead of reading a zero result (a zero Trap would read as a
// pass). Callers receive copies of the cells' slices, so mutating a result
// never changes the next one. The memo is safe for concurrent use;
// lockout-freedom fans its per-philosopher trap analyses across workers over
// one shared space.

// analysisMemo is the set of memo cells of one StateSpace.
type analysisMemo struct {
	pred       func() *graphalg.PredecessorIndex
	deadlock   func() []int
	deadRegion func() []int
	traps      cells[uint64, Trap]
	paths      cells[int, shortestPath]
}

// shortestPath is memoPath's memoized result.
type shortestPath struct {
	choices []graphalg.Choice
	ok      bool
}

// cells is a keyed family of memo cells: the value of each key is computed
// at most once, by the compute function of the first get for that key.
type cells[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V
}

// get returns the value of key k, computing it with compute on first use.
// The lock covers only the cell lookup, so distinct keys compute
// concurrently.
func (c *cells[K, V]) get(k K, compute func() V) V {
	c.mu.Lock()
	cell, ok := c.m[k]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]func() V)
		}
		cell = sync.OnceValue(compute)
		c.m[k] = cell
	}
	c.mu.Unlock()
	return cell()
}

// analyses returns the space's memo, creating it on first use. Concurrent
// first callers race to publish theirs; the losers adopt the winner's
// before computing anything.
func (ss *StateSpace) analyses() *analysisMemo {
	if m := ss.memo.Load(); m != nil {
		return m
	}
	m := &analysisMemo{}
	m.pred = sync.OnceValue(func() *graphalg.PredecessorIndex {
		return graphalg.NewPredecessorIndex(ss, ss.workers)
	})
	m.deadlock = sync.OnceValue(func() []int { return m.pred().DeadlockStates() })
	m.deadRegion = sync.OnceValue(func() []int {
		return m.pred().DeadRegionStates(func(s int) bool { return ss.anyEating[s] })
	})
	ss.memo.CompareAndSwap(nil, m)
	return ss.memo.Load()
}

// PredecessorIndex returns the reverse-CSR predecessor index of the explored
// MDP, building it on first use (in parallel over state chunks, with the
// exploration's worker count) and keeping it on the space: every analysis
// of the space runs on this one index. The index is immutable and safe for
// concurrent use.
func (ss *StateSpace) PredecessorIndex() *graphalg.PredecessorIndex {
	return ss.analyses().pred()
}

// DeadRegionStates returns the reachable states from which no eating state is
// reachable under any scheduling and any random outcomes — a reverse BFS
// from the eating states over the predecessor index, computed once per
// space. The result is the caller's copy.
func (ss *StateSpace) DeadRegionStates() []int {
	return slices.Clone(ss.analyses().deadRegion())
}

// DeadlockStates returns the reachable states in which every action of every
// philosopher is a self-loop: the system can never change state again. The
// paper's algorithms have none; the naive hold-and-wait baselines do. It is
// computed once per space; the result is the caller's copy.
func (ss *StateSpace) DeadlockStates() []int {
	return slices.Clone(ss.analyses().deadlock())
}

// trapAgainst returns the starvation trap against the protected set whose
// eating bitmask is mask, computed once per space and mask. The configured
// set (ss.protected) reads the bad labels; any other set needs the eating
// bitmasks.
func (ss *StateSpace) trapAgainst(mask uint64) Trap {
	m := ss.analyses()
	t := m.traps.get(mask, func() Trap {
		bad := ss.Bad
		if mask != ss.protected {
			bad = func(s int) bool { return ss.eating[s]&mask != 0 }
		}
		return m.pred().MaximalTrap(bad)
	})
	t.CoveredActions = slices.Clone(t.CoveredActions)
	return t
}
