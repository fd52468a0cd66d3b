// Package graphalg holds the graph and game algorithms the model checker
// runs over an explored Markov decision process: forward and backward
// reachability, deadlock detection, the safety game and maximal-end-component
// computation behind the starvation-trap analysis, strongly connected
// components, and shortest scheduler-choice path extraction.
//
// The package is a leaf (it imports only internal/par): it depends on
// nothing but the read-only StateView interface, so the analyses are
// decoupled from how the state space is stored (the sharded stores of
// internal/modelcheck, a test fixture, or any future backend).
//
// # The predecessor index
//
// The analyses run over a PredecessorIndex: the CSR form of the view's
// transition graph in both directions. The forward rows are the view's own
// (StateView.Rows), shared and never copied; the index adds the reverse
// (predecessor, action) edge occurrences, built once in O(E), in parallel
// over contiguous state chunks. Over the index every fixpoint computation is
// a worklist algorithm instead of a whole-state-space sweep: dead regions
// are a reverse BFS, the safety game is an attractor over per-action flags,
// the maximal-end-component loop re-checks only the states whose edges were
// removed, and SCCs are an iterative Tarjan enumerating edges in place. The index is immutable and
// never mutated by an analysis; mutable per-call state comes from an
// internal scratch pool, so independent analyses run concurrently over one
// shared index with zero per-state heap allocations once the pool is warm —
// which is how the lockout-freedom property fans its per-philosopher trap
// analyses across workers. The pre-worklist sweeps are retained in
// graphalgtest as test-only reference oracles.
//
// # Determinism
//
// Every analysis visits states in increasing index order, actions in
// increasing action order and outcomes in outcome order, so for a fixed view
// the results (including witness states and tie-breaks) are deterministic —
// and identical to the retained reference sweeps, as pinned by the
// equivalence grid in internal/modelcheck. Views whose numbering is itself
// deterministic — the model checker's exploration order is, for every worker
// and shard count — therefore get deterministic analyses end to end.
package graphalg

// StateView is the read-only interface the analyses operate on: a finite MDP
// with NumStates states, NumActions actions per state, and for each
// (state, action) the list of its outcomes' successor states. The outcome
// probabilities are left out: every analysis here is qualitative, so a
// verdict depends only on which successors an action can reach.
//
// Implementations must be safe for concurrent readers, and the slices
// returned by Rows must stay valid (and unmodified) for the lifetime of the
// view — the analyses alias them freely and never write through them.
type StateView interface {
	// NumStates returns the number of states; states are indexed 0..NumStates-1.
	NumStates() int
	// NumActions returns the number of actions available in every state.
	NumActions() int
	// Initial returns the index of the initial state.
	Initial() int
	// Rows returns the successor states of every (state, action) as one CSR
	// table: the successors of action a in state s are succ[off[i]:off[i+1]]
	// with i = s*NumActions()+a, so off has NumStates()*NumActions()+1
	// entries. A PredecessorIndex shares both slices instead of copying
	// them; neither may be modified.
	Rows() (off, succ []int32)
	// Bad reports the default "bad" labelling of state s (for the dining
	// MDP: a protected philosopher is eating). Analyses that test other
	// labellings take an explicit predicate instead.
	Bad(s int) bool
	// Expanded reports whether state s had its outgoing transitions fully
	// computed. States discovered but not expanded (possible only on
	// truncated explorations) carry artificial self-loops; the analyses
	// exclude them so truncation can never fabricate a violation.
	Expanded(s int) bool
}

// Succs returns the successor states of action a in state s, in outcome
// order: one row of v.Rows(). The slice must not be modified.
func Succs(v StateView, s, a int) []int32 {
	off, succ := v.Rows()
	i := s*v.NumActions() + a
	return succ[off[i]:off[i+1]]
}

// Choice is one move along a scheduler-choice path: the adversary picks
// Action and the probabilistic draw resolves to the outcome with index
// Outcome within that action's outcome set.
type Choice struct {
	// Action is the chosen action.
	Action int
	// Outcome is the index of the outcome taken.
	Outcome int
}

// PathTo returns a shortest scheduler-choice path from the initial state to
// target, and whether target is reachable. The search visits states in
// breadth-first order, actions in action order and outcomes in outcome
// order, so the returned path is deterministic for a fixed view — and, since
// the recorded choices are (action, outcome) pairs, invariant under any
// renumbering of the states.
func PathTo(v StateView, target int) ([]Choice, bool) {
	if target < 0 || target >= v.NumStates() {
		return nil, false
	}
	start := int32(v.Initial())
	if target == int(start) {
		return nil, true
	}
	n := v.NumStates()
	nActions := v.NumActions()
	off, rows := v.Rows()
	prevState := make([]int32, n)
	prevChoice := make([]Choice, n)
	for i := range prevState {
		prevState[i] = -1
	}
	prevState[start] = start
	queue := make([]int32, 0, 64)
	queue = append(queue, start)
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for a := 0; a < nActions; a++ {
			i := int(s)*nActions + a
			for oi, succ := range rows[off[i]:off[i+1]] {
				if prevState[succ] != -1 {
					continue
				}
				prevState[succ] = s
				prevChoice[succ] = Choice{Action: a, Outcome: oi}
				if int(succ) == target {
					// Reconstruct backwards, then reverse.
					var path []Choice
					for at := succ; at != start; at = prevState[at] {
						path = append(path, prevChoice[at])
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					return path, true
				}
				queue = append(queue, succ)
			}
		}
	}
	return nil, false
}
