package modelcheck

// This file binds the generic analyses of internal/graphalg to the explored
// dining MDP. StateSpace implements graphalg.StateView over its dense
// numbering (see explore.go), and every analysis here runs as a worklist
// algorithm over the space's cached reverse-CSR predecessor index
// (PredecessorIndex) — built once, in parallel, and shared by all properties
// of one Engine.Check run; the graph and game algorithms themselves have no
// knowledge of this package. All analyses are pure reads of the state space
// plus pooled per-call scratch, and safe to run concurrently over one shared
// StateSpace — the lockout-freedom property exploits that by fanning its
// per-philosopher trap analyses across workers over the one shared index.

// Reachable returns the set of states reachable from the initial state using
// any actions and any outcomes, as a boolean slice indexed by state.
func (ss *StateSpace) Reachable() []bool {
	return ss.PredecessorIndex().Reachable()
}

// DeadRegionStates returns the reachable states from which no eating state is
// reachable under any scheduling and any random outcomes — a reverse BFS
// from the eating states over the predecessor index.
func (ss *StateSpace) DeadRegionStates() []int {
	return ss.PredecessorIndex().DeadRegionStates(func(s int) bool { return ss.anyEating[s] })
}

// DeadlockStates returns the reachable states in which every action of every
// philosopher is a self-loop: the system can never change state again. The
// paper's algorithms have none; the naive hold-and-wait baselines do.
func (ss *StateSpace) DeadlockStates() []int {
	return ss.PredecessorIndex().DeadlockStates()
}
