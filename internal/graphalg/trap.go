package graphalg

// Trap describes a "trap" of the safety game: a maximal end component of the
// sub-MDP in which no bad state is ever entered, offering an allowed action
// of every index. For the dining MDP this is a starvation trap — a region in
// which a fair adversary can remain forever with probability 1, scheduling
// every philosopher infinitely often, while no protected philosopher ever
// eats.
type Trap struct {
	// Exists reports whether a fully covered end component exists within the
	// reachable safe region.
	Exists bool
	// Reachable reports whether some state of the trap is reachable from the
	// initial state (with positive probability under some scheduling).
	Reachable bool
	// States is the number of states in the largest fully covered trap found.
	States int
	// SafeRegionStates is the number of reachable states in which the
	// adversary has at least one move that surely avoids a bad state forever
	// (the greatest safe region of the safety game).
	SafeRegionStates int
	// WitnessState is the minimum state index over every fully covered trap
	// (not necessarily the largest one reported by States), or -1 when no
	// trap exists. State indices are discovery order, so this is the
	// shallowest trap state the exploration found, and the anchor for
	// counterexample extraction (PathTo) lifts it to the shortest concrete
	// witness path.
	WitnessState int
	// CoveredActions lists, for the largest candidate end component found,
	// which actions are allowed somewhere inside it, in increasing order.
	// When Exists is false this explains what was missing.
	CoveredActions []int
}
