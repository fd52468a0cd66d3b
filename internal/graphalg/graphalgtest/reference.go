// Package graphalgtest retains the pre-worklist fixpoint sweeps of
// internal/graphalg as reference oracles for tests and benchmarks. The live
// package decides everything through worklist algorithms over a
// PredecessorIndex; the sweeps here are the original state-by-state
// iterate-to-fixpoint implementations (O(N·E) worst case), kept verbatim so
// the equivalence grid (TestWorklistMatchesReferenceFixpoint) can pin that
// every verdict, witness and tie-break of the worklist forms is byte-identical
// — and so the benchmark suite can measure the speedup against the real
// baseline. Nothing outside _test files and bench_test.go may import this
// package.
package graphalgtest

import (
	"sort"

	"repro/internal/graphalg"
)

// Reachable is the reference forward reachability (DFS over a slice stack).
func Reachable(v graphalg.StateView) []bool {
	seen := make([]bool, v.NumStates())
	stack := []int{v.Initial()}
	seen[v.Initial()] = true
	nActions := v.NumActions()
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := 0; a < nActions; a++ {
			for _, succ := range graphalg.Succs(v, s, a) {
				if !seen[succ] {
					seen[succ] = true
					stack = append(stack, int(succ))
				}
			}
		}
	}
	return seen
}

// DeadlockStates is the reference deadlock scan: reachable, expanded states
// in which every action is a self-loop.
func DeadlockStates(v graphalg.StateView) []int {
	reachable := Reachable(v)
	nActions := v.NumActions()
	var out []int
	for s := 0; s < v.NumStates(); s++ {
		if !reachable[s] || !v.Expanded(s) {
			continue
		}
		stuck := true
		for a := 0; a < nActions && stuck; a++ {
			for _, succ := range graphalg.Succs(v, s, a) {
				if int(succ) != s {
					stuck = false
					break
				}
			}
		}
		if stuck {
			out = append(out, s)
		}
	}
	return out
}

// DeadRegionStates is the reference dead-region analysis: backward
// reachability from goal states iterated to fixpoint by whole-state-space
// sweeps.
func DeadRegionStates(v graphalg.StateView, goal func(s int) bool) []int {
	n := v.NumStates()
	nActions := v.NumActions()
	canReach := make([]bool, n)
	for s := 0; s < n; s++ {
		if goal(s) || !v.Expanded(s) {
			canReach[s] = true
		}
	}
	changed := true
	for changed {
		changed = false
		for s := 0; s < n; s++ {
			if canReach[s] {
				continue
			}
			for a := 0; a < nActions && !canReach[s]; a++ {
				for _, succ := range graphalg.Succs(v, s, a) {
					if canReach[succ] {
						canReach[s] = true
						changed = true
						break
					}
				}
			}
		}
	}
	reachable := Reachable(v)
	var dead []int
	for s := 0; s < n; s++ {
		if reachable[s] && !canReach[s] {
			dead = append(dead, s)
		}
	}
	return dead
}

// MaximalTrap is the reference trap analysis: the safety game and the
// maximal-end-component loop both iterate whole-state-space sweeps to
// fixpoint, exactly as the live package did before the predecessor-index
// worklists.
func MaximalTrap(v graphalg.StateView, bad func(s int) bool) graphalg.Trap {
	n := v.NumStates()
	nActions := v.NumActions()
	reachable := Reachable(v)

	// Step 1: greatest safe region S and allowed actions.
	inS := make([]bool, n)
	for s := 0; s < n; s++ {
		inS[s] = reachable[s] && !bad(s) && v.Expanded(s)
	}
	allowed := make([][]bool, n)
	for s := range allowed {
		allowed[s] = make([]bool, nActions)
	}
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			if !inS[s] {
				continue
			}
			anyAllowed := false
			for a := 0; a < nActions; a++ {
				ok := true
				for _, succ := range graphalg.Succs(v, s, a) {
					if !inS[succ] {
						ok = false
						break
					}
				}
				allowed[s][a] = ok
				if ok {
					anyAllowed = true
				}
			}
			if !anyAllowed {
				inS[s] = false
				changed = true
			}
		}
	}
	safeCount := 0
	for s := 0; s < n; s++ {
		if inS[s] {
			safeCount++
		}
	}

	trap := graphalg.Trap{SafeRegionStates: safeCount, WitnessState: -1}
	if safeCount == 0 {
		return trap
	}

	// Step 2: maximal end components of (S, allowed).
	inEC := make([]bool, n)
	copy(inEC, inS)
	act := make([][]bool, n)
	for s := range act {
		act[s] = make([]bool, nActions)
		copy(act[s], allowed[s])
	}
	comp := make([]int, n)

	for {
		StronglyConnected(v, inEC, act, comp)

		changed := false
		for s := 0; s < n; s++ {
			if !inEC[s] {
				continue
			}
			anyAct := false
			for a := 0; a < nActions; a++ {
				if !act[s][a] {
					continue
				}
				ok := true
				for _, succ := range graphalg.Succs(v, s, a) {
					if !inEC[succ] || comp[succ] != comp[s] {
						ok = false
						break
					}
				}
				if !ok {
					act[s][a] = false
					changed = true
				} else {
					anyAct = true
				}
			}
			if !anyAct {
				inEC[s] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Step 3: group remaining states by component and check action coverage.
	groups := make(map[int][]int)
	for s := 0; s < n; s++ {
		if inEC[s] {
			groups[comp[s]] = append(groups[comp[s]], s)
		}
	}
	compIDs := make([]int, 0, len(groups))
	for id := range groups {
		compIDs = append(compIDs, id)
	}
	sort.Ints(compIDs)
	bestCovered := 0
	witness := -1
	for _, id := range compIDs {
		states := groups[id]
		covered := make([]bool, nActions)
		for _, s := range states {
			for a := 0; a < nActions; a++ {
				if act[s][a] {
					covered[a] = true
				}
			}
		}
		count := 0
		var coveredIDs []int
		for a, c := range covered {
			if c {
				count++
				coveredIDs = append(coveredIDs, a)
			}
		}
		fully := count == nActions
		// Minimum state index over every fully covered trap (states is in
		// increasing order), matching the live package's witness tie-break.
		if fully && (witness < 0 || states[0] < witness) {
			witness = states[0]
		}
		if count > bestCovered || (fully && trap.States < len(states)) {
			bestCovered = count
			trap.CoveredActions = coveredIDs
			if fully {
				trap.Exists = true
				trap.States = len(states)
				trap.Reachable = true
			}
		}
	}
	if trap.Exists {
		trap.WitnessState = witness
	}
	return trap
}

// StronglyConnected is the reference SCC computation: an iterative Tarjan
// that materializes a successor slice per visited state (the per-state
// allocation the live package's in-place cursor enumeration removed).
func StronglyConnected(v graphalg.StateView, inSet []bool, act [][]bool, comp []int) int {
	n := v.NumStates()
	nActions := v.NumActions()
	const unvisited = -1
	for i := range comp[:n] {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	type frame struct {
		v    int
		edge int
		succ []int32
	}
	var callStack []frame
	nextIndex := 0
	compCount := 0

	successors := func(s int) []int32 {
		var out []int32
		for a := 0; a < nActions; a++ {
			if !act[s][a] {
				continue
			}
			for _, succ := range graphalg.Succs(v, s, a) {
				if inSet[succ] {
					out = append(out, succ)
				}
			}
		}
		return out
	}

	for root := 0; root < n; root++ {
		if !inSet[root] || index[root] != unvisited {
			continue
		}
		callStack = callStack[:0]
		callStack = append(callStack, frame{v: root, edge: 0, succ: successors(root)})
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			if fr.edge < len(fr.succ) {
				wn := int(fr.succ[fr.edge])
				fr.edge++
				if index[wn] == unvisited {
					index[wn] = nextIndex
					low[wn] = nextIndex
					nextIndex++
					stack = append(stack, wn)
					onStack[wn] = true
					callStack = append(callStack, frame{v: wn, edge: 0, succ: successors(wn)})
				} else if onStack[wn] && index[wn] < low[fr.v] {
					low[fr.v] = index[wn]
				}
				continue
			}
			fv := fr.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[fv] < low[parent.v] {
					low[parent.v] = low[fv]
				}
			}
			if low[fv] == index[fv] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == fv {
						break
					}
				}
				compCount++
			}
		}
	}
	return compCount
}
