package graphalg

// This file holds the worklist analyses that run over a PredecessorIndex.
// Each is the linear-time form of the corresponding fixpoint sweep retained
// as a reference oracle in graphalgtest; TestWorklistMatchesReferenceFixpoint
// pins that every verdict, witness and tie-break is identical across the full
// topology × algorithm grid. Everything here reads the index's flat CSR
// arrays — never the StateView — so the inner loops are array walks with no
// interface dispatch.

// reachable returns the cached set of states reachable from the initial
// state using any actions and any outcomes, computing it on first use. Reachability depends only on the graph, so every analysis (and
// every per-philosopher labelling) shares the one computation; callers must
// treat the returned slice as read-only.
func (ix *PredecessorIndex) reachable() []bool {
	ix.reachOnce.Do(func() {
		ix.reach = make([]bool, ix.n)
		if ix.n == 0 {
			return
		}
		sc := ix.getScratch()
		defer ix.putScratch(sc)
		// The outcomes of all actions of one state are one contiguous fsucc
		// range, so expanding a state is a single flat loop.
		nActions := ix.nActions
		seen := ix.reach
		stack := sc.queue[:0]
		stack = append(stack, int32(ix.v.Initial()))
		seen[ix.v.Initial()] = true
		for len(stack) > 0 {
			s := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			for _, succ := range ix.fsucc[ix.foff[s*nActions]:ix.foff[(s+1)*nActions]] {
				if !seen[succ] {
					seen[succ] = true
					stack = append(stack, succ)
				}
			}
		}
		sc.queue = stack[:0]
	})
	return ix.reach
}

// DeadlockStates returns the reachable, expanded states in which every
// action is a self-loop: the system can never change state again.
func (ix *PredecessorIndex) DeadlockStates() []int {
	v, nActions := ix.v, ix.nActions
	reach := ix.reachable()
	var out []int
	for s := 0; s < ix.n; s++ {
		// Unexpanded states (possible only on truncated explorations) carry
		// artificial self-loops; treating them as deadlocks would fabricate
		// violations out of the truncation itself.
		if !reach[s] || !v.Expanded(s) {
			continue
		}
		stuck := true
		for _, succ := range ix.fsucc[ix.foff[s*nActions]:ix.foff[(s+1)*nActions]] {
			if int(succ) != s {
				stuck = false
				break
			}
		}
		if stuck {
			out = append(out, s)
		}
	}
	return out
}

// DeadRegionStates returns the reachable states from which no goal state is
// reachable under any action and any outcome: a reverse BFS from the goal
// (and unexpanded) states over the predecessor index, instead of the
// reference oracle's forward sweep to fixpoint. States that were never
// expanded count as able to reach a goal — their artificial self-loops say
// nothing about the real system, so truncation can never fabricate a
// violation; on a truncated view the analysis under-approximates, like
// MaximalTrap.
func (ix *PredecessorIndex) DeadRegionStates(goal func(s int) bool) []int {
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	v := ix.v
	n := ix.n
	sc.mark = resized(sc.mark, n)
	canReach := sc.mark
	queue := sc.queue[:0]
	for s := 0; s < n; s++ {
		if goal(s) || !v.Expanded(s) {
			canReach[s] = true
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range ix.pred[ix.roff[t]:ix.roff[t+1]] {
			if !canReach[p] {
				canReach[p] = true
				queue = append(queue, p)
			}
		}
	}
	sc.queue = queue[:0]
	reach := ix.reachable()
	var dead []int
	for s := 0; s < n; s++ {
		if reach[s] && !canReach[s] {
			dead = append(dead, s)
		}
	}
	return dead
}

// MaximalTrap analyses the view for a trap against the given bad-state
// labelling (pass the view's Bad for the default labelling). The three standard
// steps of the reference oracle — safety game, maximal end components, action
// coverage — are reformulated as worklist algorithms over the index:
//
//  1. Safety game: instead of sweeping all states to fixpoint, every
//     (state, action) keeps a counter of outcomes currently outside the safe
//     set and every state a counter of still-allowed actions. Removing a
//     state decrements the counters of exactly its predecessors; a state
//     whose last allowed action dies joins the worklist. The greatest safe
//     region is unique, so the result is identical to the sweep's.
//  2. End components: rounds of SCC decomposition over the retained graph,
//     but each round after the first re-checks only the states of components
//     in which an edge or state was removed — removals propagate to exactly
//     the affected predecessors through the index, and untouched components
//     are never revisited. The final decomposition (the maximal end
//     components) is canonical, so convergence order is unobservable; a last
//     full Tarjan pass renumbers it exactly as the reference's final
//     iteration does.
//  3. Coverage: identical to the reference, over flat per-component tallies.
func (ix *PredecessorIndex) MaximalTrap(bad func(s int) bool) Trap {
	reach := ix.reachable()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	v := ix.v
	n, nActions := ix.n, ix.nActions
	foff, fsucc := ix.foff, ix.fsucc

	// Step 1: greatest safe region S and allowed actions, as a
	// counter-decrement attractor seeded with every state outside the
	// candidate set. States that were never expanded (possible only on
	// truncated explorations) are excluded: their artificial self-loops must
	// not be mistaken for safe behaviour.
	sc.inS = resized(sc.inS, n)
	sc.badCnt = resized(sc.badCnt, n*nActions)
	sc.allowedCnt = resized(sc.allowedCnt, n)
	inS, badCnt, allowedCnt := sc.inS, sc.badCnt, sc.allowedCnt
	queue := sc.queue[:0]
	for s := 0; s < n; s++ {
		allowedCnt[s] = int32(nActions)
		if reach[s] && !bad(s) && v.Expanded(s) {
			inS[s] = true
		} else {
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		lo, hi := ix.roff[t], ix.roff[t+1]
		for e := lo; e < hi; e++ {
			p := ix.pred[e]
			if !inS[p] {
				continue
			}
			pa := int(p)*nActions + int(ix.pact[e])
			badCnt[pa]++
			if badCnt[pa] == 1 {
				allowedCnt[p]--
				if allowedCnt[p] == 0 {
					inS[p] = false
					queue = append(queue, p)
				}
			}
		}
	}
	sc.queue = queue[:0]

	safeCount := 0
	for s := 0; s < n; s++ {
		if inS[s] {
			safeCount++
		}
	}
	trap := Trap{SafeRegionStates: safeCount, WitnessState: -1}
	if safeCount == 0 {
		return trap
	}

	// Step 2: maximal end components of (S, allowed). act and actCnt start
	// from the safety game's counters; work lists the states whose component
	// must be (re-)decomposed this round — everything in round one, then only
	// the components dirtied by the previous round's removals.
	sc.inEC = resized(sc.inEC, n)
	sc.act = resized(sc.act, n*nActions)
	sc.actCnt = resized(sc.actCnt, n)
	// comp needs no clearing: it is only ever read for states of the current
	// round's work list, all of which the round's Tarjan assigns first.
	sc.comp = sized(sc.comp, n)
	inEC, act, actCnt, comp := sc.inEC, sc.act, sc.actCnt, sc.comp
	work := sc.work[:0]
	for s := 0; s < n; s++ {
		if !inS[s] {
			continue
		}
		inEC[s] = true
		actCnt[s] = allowedCnt[s]
		base := s * nActions
		for a := 0; a < nActions; a++ {
			act[base+a] = badCnt[base+a] == 0
		}
		work = append(work, int32(s))
	}
	sc.work = work

	// ecCount tracks the surviving states; a round whose work list covers all
	// of them (always the first, possibly later ones) is a global
	// decomposition, and if nothing changes after one, its numbering is
	// already the final decomposition's — the closing Tarjan pass is skipped.
	ecCount := safeCount
	compCount := -1
	for len(work) > 0 {
		globalRound := len(work) == ecCount
		cnt := ix.tarjanSCC(sc, work, inEC, act, comp)
		sc.dirty = resized(sc.dirty, int(cnt))
		dirty := sc.dirty
		removeQ := sc.queue[:0]
		anyDirty := false
		// Re-check the decomposed states: drop actions whose outcomes left
		// the component, and remove states left with no actions.
		for _, s32 := range work {
			s := int(s32)
			if !inEC[s] {
				continue
			}
			base := s * nActions
			for a := 0; a < nActions; a++ {
				if !act[base+a] {
					continue
				}
				ok := true
				for _, succ := range fsucc[foff[base+a]:foff[base+a+1]] {
					if !inEC[succ] || comp[succ] != comp[s] {
						ok = false
						break
					}
				}
				if !ok {
					act[base+a] = false
					actCnt[s]--
					dirty[comp[s]] = true
					anyDirty = true
				}
			}
			if actCnt[s] == 0 {
				inEC[s] = false
				ecCount--
				dirty[comp[s]] = true
				anyDirty = true
				removeQ = append(removeQ, s32)
			}
		}
		// Removal cascade: a removed state invalidates exactly the retained
		// predecessor actions with an outcome into it — the incremental
		// re-check the predecessor index exists for. Retained actions never
		// cross components, so the cascade stays within this round's states.
		for len(removeQ) > 0 {
			t := removeQ[len(removeQ)-1]
			removeQ = removeQ[:len(removeQ)-1]
			lo, hi := ix.roff[t], ix.roff[t+1]
			for e := lo; e < hi; e++ {
				p := ix.pred[e]
				pa := int(p)*nActions + int(ix.pact[e])
				if !inEC[p] || !act[pa] {
					continue
				}
				act[pa] = false
				actCnt[p]--
				dirty[comp[p]] = true
				anyDirty = true
				if actCnt[p] == 0 {
					inEC[p] = false
					ecCount--
					removeQ = append(removeQ, p)
				}
			}
		}
		sc.queue = removeQ[:0]
		if !anyDirty {
			if globalRound {
				compCount = int(cnt)
			}
			break
		}
		// Next round: only the surviving states of dirtied components, in
		// increasing state order (work is ordered, so the filter preserves
		// that).
		next := sc.next[:0]
		for _, s := range work {
			if inEC[s] && dirty[comp[s]] {
				next = append(next, s)
			}
		}
		sc.work, sc.next = next, work[:0]
		work = next
	}

	// Final decomposition of the stable subgraph, numbered from zero in full
	// state order — exactly the reference's last StronglyConnected call, so
	// step 3 visits components in the same deterministic order. When the
	// loop's last round was already a stable global decomposition, its comp
	// numbering is that decomposition and the pass is skipped.
	if compCount < 0 {
		work = sc.next[:0]
		for s := 0; s < n; s++ {
			if inEC[s] {
				work = append(work, int32(s))
			}
		}
		sc.next = work
		compCount = int(ix.tarjanSCC(sc, work, inEC, act, comp))
	}

	// Step 3: per-component size, minimal state and action coverage, visited
	// in component order (the reference visits components sorted by id, and
	// Tarjan's completion numbering is already 0..compCount-1).
	sc.compSize = resized(sc.compSize, compCount)
	sc.compMin = resized(sc.compMin, compCount)
	sc.covered = resized(sc.covered, compCount*nActions)
	compSize, compMin, covered := sc.compSize, sc.compMin, sc.covered
	for c := range compMin {
		compMin[c] = -1
	}
	for _, s32 := range work {
		s := int(s32)
		c := int(comp[s])
		compSize[c]++
		if compMin[c] == -1 {
			compMin[c] = s32
		}
		base := s * nActions
		for a := 0; a < nActions; a++ {
			if act[base+a] {
				covered[c*nActions+a] = true
			}
		}
	}

	bestCovered := 0
	witness := int32(-1)
	for c := 0; c < compCount; c++ {
		count := 0
		for a := 0; a < nActions; a++ {
			if covered[c*nActions+a] {
				count++
			}
		}
		fully := count == nActions
		// The witness is the minimum state index over every fully covered
		// trap, not the reported (largest) one: state indices are discovery
		// order, so the smallest index is the shallowest trap state and lifts
		// to the shortest concrete counterexample path.
		if fully && (witness < 0 || compMin[c] < witness) {
			witness = compMin[c]
		}
		if count > bestCovered || (fully && trap.States < int(compSize[c])) {
			bestCovered = count
			coveredIDs := make([]int, 0, count)
			for a := 0; a < nActions; a++ {
				if covered[c*nActions+a] {
					coveredIDs = append(coveredIDs, a)
				}
			}
			trap.CoveredActions = coveredIDs
			if fully {
				trap.Exists = true
				trap.States = int(compSize[c])
				// Reachability of the trap (the safe region is already
				// restricted to reachable states, so any member works).
				trap.Reachable = true
			}
		}
	}
	if trap.Exists {
		trap.WitnessState = int(witness)
	}
	return trap
}

// tarjanSCC runs an iterative Tarjan over the states of roots (which must be
// in increasing order), following the outcomes of retained actions
// (act[s*nActions+a]) into states with in[succ] true, and writes component
// ids comp[s] = 0..count-1 in completion order. It returns the number of
// components found; states outside roots keep their comp values. Edges are
// enumerated in place through the (action, outcome) cursor of each stack
// frame — no per-visited-state successor slice is materialized — and every
// stack lives in the scratch, so a warm call performs no per-state heap
// allocations.
func (ix *PredecessorIndex) tarjanSCC(sc *scratch, roots []int32, in, act []bool, comp []int32) int32 {
	nActions := ix.nActions
	foff, fsucc := ix.foff, ix.fsucc
	const unvisited = -1
	// No O(n) clearing here — a round's cost must track its root set, not
	// the state count. index entries are explicitly set to unvisited for
	// every root below (and every visited state is a root or reached through
	// roots' in-set edges, so no stale entry is ever read); low is written at
	// push before any read; onStack is all-false by invariant, since every
	// pushed state is popped before the function returns.
	sc.tIndex = sized(sc.tIndex, ix.n)
	sc.tLow = sized(sc.tLow, ix.n)
	sc.onStack = sized(sc.onStack, ix.n)
	index, low, onStack := sc.tIndex, sc.tLow, sc.onStack
	for _, s := range roots {
		index[s] = unvisited
	}
	stack := sc.tStack[:0]
	frames := sc.frames[:0]
	var nextIndex, compCount int32

	for _, root := range roots {
		if !in[root] || index[root] != unvisited {
			continue
		}
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames, tframe{s: root, a: -1})
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			descended := false
			// Advance the edge cursor: outcomes of the current action first,
			// then the next retained action.
			for {
				if fr.a >= 0 && int(fr.oi) < len(fr.succ) {
					w := fr.succ[fr.oi]
					fr.oi++
					if !in[w] {
						continue
					}
					if index[w] == unvisited {
						index[w] = nextIndex
						low[w] = nextIndex
						nextIndex++
						stack = append(stack, w)
						onStack[w] = true
						frames = append(frames, tframe{s: w, a: -1})
						descended = true
						break
					}
					if onStack[w] && index[w] < low[fr.s] {
						low[fr.s] = index[w]
					}
					continue
				}
				fr.a++
				base := int(fr.s) * nActions
				for int(fr.a) < nActions && !act[base+int(fr.a)] {
					fr.a++
				}
				if int(fr.a) >= nActions {
					break
				}
				o := base + int(fr.a)
				fr.succ = fsucc[foff[o]:foff[o+1]]
				fr.oi = 0
			}
			if descended {
				continue
			}
			// Finished fr.s: close the frame and pop its component if it is
			// a root of one.
			fs := fr.s
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[fs] < low[parent.s] {
					low[parent.s] = low[fs]
				}
			}
			if low[fs] == index[fs] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compCount
					if w == fs {
						break
					}
				}
				compCount++
			}
		}
	}
	sc.tStack, sc.frames = stack[:0], frames[:0]
	return compCount
}
