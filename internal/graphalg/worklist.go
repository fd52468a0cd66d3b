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
//     (state, action) keeps a flag that is cleared by its first outcome
//     outside the safe set, and every state a counter of still-allowed
//     actions. Removing a state visits exactly its predecessors; a state
//     whose last allowed action dies joins the worklist. The greatest safe
//     region is unique, so the result is identical to the sweep's.
//  2. End components: rounds of SCC decomposition over the retained graph,
//     but each round after the first re-checks only the states of components
//     in which an edge or state was removed — removals propagate to exactly
//     the affected predecessors through the index, and untouched components
//     are never revisited. Every component is labelled with its least state,
//     which no other component of any round shares, so one label array
//     serves all rounds.
//  3. Coverage: identical to the reference, over flat per-component tallies.
//     The final components are the reference's, and so is their order: once
//     no retained action leaves its component, a Tarjan pass in state order
//     (the reference's last StronglyConnected call) numbers them by least
//     state, so one scan in state order numbers them instead.
func (ix *PredecessorIndex) MaximalTrap(bad func(s int) bool) Trap {
	reach := ix.reachable()
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	v := ix.v
	n, nActions := ix.n, ix.nActions
	foff, fsucc := ix.foff, ix.fsucc

	// Step 1: greatest safe region and allowed actions, as an attractor
	// seeded with every state outside the candidate set. Only an action's
	// first outcome outside the region matters, so one flag per action
	// suffices. States that were never expanded (possible only on truncated
	// explorations) are excluded: their artificial self-loops must not be
	// mistaken for safe behaviour.
	sc.in = resized(sc.in, n)
	sc.act = sized(sc.act, n*nActions)
	sc.actCnt = sized(sc.actCnt, n)
	in, act, actCnt := sc.in, sc.act, sc.actCnt
	for i := range act {
		act[i] = true
	}
	queue := sc.queue[:0]
	for s := 0; s < n; s++ {
		actCnt[s] = int32(nActions)
		if reach[s] && !bad(s) && v.Expanded(s) {
			in[s] = true
		} else {
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for e := ix.roff[t]; e < ix.roff[t+1]; e++ {
			p := ix.pred[e]
			pa := int(p)*nActions + int(ix.pact[e])
			if !in[p] || !act[pa] {
				continue
			}
			act[pa] = false
			actCnt[p]--
			if actCnt[p] == 0 {
				in[p] = false
				queue = append(queue, p)
			}
		}
	}
	sc.queue = queue[:0]

	safeCount := 0
	for s := 0; s < n; s++ {
		if in[s] {
			safeCount++
		}
	}
	trap := Trap{SafeRegionStates: safeCount, WitnessState: -1}
	if safeCount == 0 {
		return trap
	}

	// Step 2: maximal end components of (in, act), continuing from the
	// safety game's flags and counters. work lists the states whose
	// component must be (re-)decomposed this round — the whole safe region
	// in round one, then only the components dirtied by the previous round's
	// removals. Rounds only shrink it, so work and next are sized once.
	// comp and dirty need no clearing: round one labels every state of the
	// safe region, a label is only read for states that are still in, and
	// each round clears the dirty flags of its own labels.
	sc.comp = sized(sc.comp, n)
	sc.dirty = sized(sc.dirty, n)
	sc.work = sized(sc.work, safeCount)[:0]
	sc.next = sized(sc.next, safeCount)[:0]
	comp, dirty := sc.comp, sc.dirty
	work := sc.work
	for s := 0; s < n; s++ {
		if in[s] {
			work = append(work, int32(s))
		}
	}
	for len(work) > 0 {
		ix.tarjanSCC(sc, work, in, act, comp)
		for _, s := range work {
			dirty[s] = false // every label of the round is a state of work
		}
		removeQ := sc.queue[:0]
		anyDirty := false
		// Re-check the decomposed states: drop actions whose outcomes left
		// the component, and remove states left with no actions.
		for _, s32 := range work {
			s := int(s32)
			base := s * nActions
			for a := 0; a < nActions; a++ {
				if !act[base+a] {
					continue
				}
				for _, succ := range fsucc[foff[base+a]:foff[base+a+1]] {
					if !in[succ] || comp[succ] != comp[s] {
						act[base+a] = false
						actCnt[s]--
						dirty[comp[s]] = true
						anyDirty = true
						break
					}
				}
			}
			if actCnt[s] == 0 {
				in[s] = false
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
			for e := ix.roff[t]; e < ix.roff[t+1]; e++ {
				p := ix.pred[e]
				pa := int(p)*nActions + int(ix.pact[e])
				if !in[p] || !act[pa] {
					continue
				}
				act[pa] = false
				actCnt[p]--
				dirty[comp[p]] = true
				anyDirty = true
				if actCnt[p] == 0 {
					in[p] = false
					removeQ = append(removeQ, p)
				}
			}
		}
		sc.queue = removeQ[:0]
		if !anyDirty {
			break
		}
		// Next round: only the surviving states of dirtied components, in
		// increasing state order (work is ordered, so the filter preserves
		// that).
		next := sc.next[:0]
		for _, s := range work {
			if in[s] && dirty[comp[s]] {
				next = append(next, s)
			}
		}
		sc.work, sc.next = next, work[:0]
		work = next
	}

	// Step 3: number the final components 0, 1, ... in order of their least
	// states, in place — a state visited after its component's least state
	// reads the number already written there — and tally each component's
	// size, least state and action coverage.
	compSize, compMin, covered := sc.compSize[:0], sc.compMin[:0], sc.covered[:0]
	for s := 0; s < n; s++ {
		if !in[s] {
			continue
		}
		c := comp[s]
		if c == int32(s) {
			c = int32(len(compSize))
			compSize = append(compSize, 0)
			compMin = append(compMin, int32(s))
			covered = append(covered, make([]bool, nActions)...)
		} else {
			c = comp[c]
		}
		comp[s] = c
		compSize[c]++
		base := s * nActions
		for a := 0; a < nActions; a++ {
			if act[base+a] {
				covered[int(c)*nActions+a] = true
			}
		}
	}
	sc.compSize, sc.compMin, sc.covered = compSize, compMin, covered

	bestCovered := 0
	witness := int32(-1)
	for c := range compSize {
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
// (act[s*nActions+a]) into states with in[succ] true, and labels each
// component it finds with its least state: comp[s] is the least member of
// s's component. States outside roots keep their comp values. Edges are
// enumerated in place through the fsucc cursor of each stack frame — no
// per-visited-state successor slice is materialized — and every stack lives
// in the scratch, so a warm call performs no per-state heap allocations.
func (ix *PredecessorIndex) tarjanSCC(sc *scratch, roots []int32, in, act []bool, comp []int32) {
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
	var nextIndex int32

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
				if fr.oi < fr.end {
					w := fsucc[fr.oi]
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
				fr.oi, fr.end = foff[o], foff[o+1]
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
				// The component is the stack from fs up.
				i := len(stack) - 1
				least := fs
				for stack[i] != fs {
					least = min(least, stack[i])
					i--
				}
				for _, w := range stack[i:] {
					onStack[w] = false
					comp[w] = least
				}
				stack = stack[:i]
			}
		}
	}
	sc.tStack, sc.frames = stack[:0], frames[:0]
}
