package graph

import "sort"

// Cycle is a cycle of the topology, described by the sequence of philosophers
// (arcs) traversed. The corresponding fork sequence is Forks(). A cycle of
// length 2 uses two distinct philosophers between the same pair of forks
// (parallel arcs), which the paper explicitly allows.
type Cycle struct {
	// Phils lists the philosophers of the cycle in traversal order.
	Phils []PhilID
	// ForkSeq lists the forks in traversal order; ForkSeq[i] and
	// ForkSeq[(i+1) % len] are the forks of Phils[i].
	ForkSeq []ForkID
}

// canonicalKey returns a rotation/direction-invariant key for deduplicating
// cycles: the sorted philosopher-ID list. Two distinct cycles can never use
// exactly the same arc set (in a cycle every arc appears once), so the arc set
// identifies the cycle.
func (c Cycle) canonicalKey() string {
	ids := make([]int, len(c.Phils))
	for i, p := range c.Phils {
		ids[i] = int(p)
	}
	sort.Ints(ids)
	key := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		key = append(key, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return string(key)
}

// EnumerateCycles returns every simple cycle of the topology (no repeated fork
// and no repeated philosopher within a cycle), up to rotation and direction.
// limit bounds the number of cycles returned (0 means no limit); the search is
// exponential in the worst case, so callers analysing large random graphs
// should pass a limit.
func (t *Topology) EnumerateCycles(limit int) []Cycle {
	var out []Cycle
	seen := make(map[string]bool)

	emit := func(pathPhils []PhilID, closing PhilID, start ForkID) bool {
		phils := make([]PhilID, 0, len(pathPhils)+1)
		phils = append(phils, pathPhils...)
		phils = append(phils, closing)
		forks := make([]ForkID, len(phils))
		forks[0] = start
		for i := 0; i < len(pathPhils); i++ {
			forks[i+1] = t.OtherFork(pathPhils[i], forks[i])
		}
		cyc := Cycle{Phils: phils, ForkSeq: forks}
		key := cyc.canonicalKey()
		if !seen[key] {
			seen[key] = true
			out = append(out, cyc)
		}
		return limit > 0 && len(out) >= limit
	}

	// For every philosopher p (as the "smallest arc" of the cycle), search for
	// a path from Left(p) to Right(p) that does not reuse p, any philosopher
	// with smaller ID, or any fork twice; closing the path with p itself forms
	// the cycle.
	for p := 0; p < len(t.phils); p++ {
		start := t.phils[p][Left]
		goal := t.phils[p][Right]

		usedPhil := make([]bool, len(t.phils))
		usedFork := make([]bool, t.numForks)
		usedPhil[p] = true
		usedFork[start] = true

		var pathPhils []PhilID

		var dfs func(cur ForkID) bool
		dfs = func(cur ForkID) bool {
			if cur == goal {
				return emit(pathPhils, PhilID(p), start)
			}
			usedFork[cur] = true
			defer func() { usedFork[cur] = false }()
			for _, q := range t.at[cur] {
				if usedPhil[q] || int(q) < p {
					continue
				}
				next := t.OtherFork(q, cur)
				if next != goal && usedFork[next] {
					continue
				}
				usedPhil[q] = true
				pathPhils = append(pathPhils, q)
				stop := dfs(next)
				pathPhils = pathPhils[:len(pathPhils)-1]
				usedPhil[q] = false
				if stop {
					return true
				}
			}
			return false
		}
		// Walk each arc leaving `start` (other than p) as the first step.
		stopped := false
		for _, q := range t.at[start] {
			if q == PhilID(p) || int(q) < p {
				continue
			}
			next := t.OtherFork(q, start)
			usedPhil[q] = true
			pathPhils = append(pathPhils, q)
			stopped = dfs(next)
			pathPhils = pathPhils[:len(pathPhils)-1]
			usedPhil[q] = false
			if stopped {
				break
			}
		}
		if stopped {
			break
		}
	}
	return out
}

// CountCycles returns the number of simple cycles, bounded by limit (0 = no
// limit).
func (t *Topology) CountCycles(limit int) int {
	return len(t.EnumerateCycles(limit))
}

// RingWithHighDegreeNode searches for the structure required by Theorem 1: a
// simple cycle H together with a fork on H of degree at least three (an arc
// incident on the cycle besides the two cycle arcs). It returns the cycle, the
// high-degree fork and true when found.
func (t *Topology) RingWithHighDegreeNode() (Cycle, ForkID, bool) {
	for _, cyc := range t.EnumerateCycles(0) {
		for _, f := range cyc.ForkSeq {
			if t.Degree(f) >= 3 {
				return cyc, f, true
			}
		}
	}
	return Cycle{}, NoFork, false
}

// ThetaPair searches for the structure required by Theorem 2: two forks joined
// by at least three internally fork-disjoint paths (equivalently, a cycle H
// plus an additional path between two of its forks). It returns the two forks
// and true when found.
func (t *Topology) ThetaPair() (ForkID, ForkID, bool) {
	// Two forks u, v are a theta pair iff there exist 3 internally
	// fork-disjoint, arc-disjoint u-v paths. We check every pair with a simple
	// augmenting-path search on the arc graph (max-flow with unit arc
	// capacities and unit internal-fork capacities).
	for u := 0; u < t.numForks; u++ {
		for v := u + 1; v < t.numForks; v++ {
			if t.disjointPaths(ForkID(u), ForkID(v), 3) >= 3 {
				return ForkID(u), ForkID(v), true
			}
		}
	}
	return NoFork, NoFork, false
}

// disjointPaths returns the number of pairwise internally-fork-disjoint and
// arc-disjoint u→v paths found, stopping once `want` have been found.
func (t *Topology) disjointPaths(u, v ForkID, want int) int {
	usedPhil := make([]bool, len(t.phils))
	usedFork := make([]bool, t.numForks)
	count := 0
	for count < want {
		// DFS for one more path avoiding used philosophers and used internal forks.
		var path []PhilID
		visited := make([]bool, t.numForks)
		var dfs func(cur ForkID) bool
		dfs = func(cur ForkID) bool {
			if cur == v {
				return true
			}
			visited[cur] = true
			for _, q := range t.at[cur] {
				if usedPhil[q] {
					continue
				}
				next := t.OtherFork(q, cur)
				if next != v && (visited[next] || usedFork[next]) {
					continue
				}
				path = append(path, q)
				usedPhil[q] = true
				if dfs(next) {
					return true
				}
				usedPhil[q] = false
				path = path[:len(path)-1]
			}
			return false
		}
		if !dfs(u) {
			break
		}
		// Mark internal forks of the found path as used.
		cur := u
		for _, q := range path {
			next := t.OtherFork(q, cur)
			if next != v {
				usedFork[next] = true
			}
			cur = next
		}
		count++
	}
	return count
}

// SatisfiesTheorem1 reports whether the topology contains the Theorem 1
// structure (a cycle with a fork of degree >= 3), i.e. whether a fair
// adversary defeating LR1 is guaranteed to exist by the paper.
func (t *Topology) SatisfiesTheorem1() bool {
	_, _, ok := t.RingWithHighDegreeNode()
	return ok
}

// SatisfiesTheorem2 reports whether the topology contains the Theorem 2
// structure (two forks joined by three internally disjoint paths), i.e.
// whether a fair adversary defeating LR2 is guaranteed to exist by the paper.
func (t *Topology) SatisfiesTheorem2() bool {
	_, _, ok := t.ThetaPair()
	return ok
}
