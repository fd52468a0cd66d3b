package graphalg

import (
	"reflect"
	"testing"
)

// mdp is a hand-built StateView fixture: its rows are built once from the
// successor lists newMDP is given.
type mdp struct {
	nActions int
	initial  int
	// off and succ are the CSR rows Rows returns: action a of state s has
	// the successors succ[off[s*nActions+a]:off[s*nActions+a+1]].
	off, succ []int32
	bad       []bool
	expanded  []bool
}

// newMDP builds the fixture whose action a in state s has the successors
// succs[s][a].
func newMDP(nActions int, succs [][][]int32) *mdp {
	m := &mdp{nActions: nActions}
	m.bad = make([]bool, len(succs))
	m.expanded = make([]bool, len(succs))
	for s := range succs {
		if len(succs[s]) != nActions {
			panic("fixture: wrong action count")
		}
		m.expanded[s] = true
		for a := range succs[s] {
			m.off = append(m.off, int32(len(m.succ)))
			m.succ = append(m.succ, succs[s][a]...)
		}
	}
	m.off = append(m.off, int32(len(m.succ)))
	return m
}

func (m *mdp) NumStates() int            { return len(m.bad) }
func (m *mdp) NumActions() int           { return m.nActions }
func (m *mdp) Initial() int              { return m.initial }
func (m *mdp) Bad(s int) bool            { return m.bad[s] }
func (m *mdp) Expanded(s int) bool       { return m.expanded[s] }
func (m *mdp) Rows() (off, succ []int32) { return m.off, m.succ }

// fixture builds the shared five-state MDP:
//
//	0: a0 -> 1        a1 -> 2
//	1: a0 -> 0        a1 -> 1 (self)
//	2: a0 -> 2 (self) a1 -> 2 (self)   — an absorbing deadlock
//	3: self-loops, unreachable
//	4: a0 -> 3, a1 -> 4, unreachable
func fixture() *mdp {
	return newMDP(2, [][][]int32{
		{{1}, {2}},
		{{0}, {1}},
		{{2}, {2}},
		{{3}, {3}},
		{{3}, {4}},
	})
}

// index builds a fresh predecessor index over m, as the model checker does
// once per explored space.
func index(m *mdp) *PredecessorIndex { return NewPredecessorIndex(m, 1) }

// TestPredecessorIndexSharesViewRows pins that the index reads the view's
// forward rows in place: its forward arrays are the fixture's own, not a
// copy. The worker counts include ones whose rounded-up chunk size leaves
// fewer non-empty chunks than workers (5 states at 4 workers, 10 at 8), and
// every build's reverse half must equal the one-worker build's.
func TestPredecessorIndexSharesViewRows(t *testing.T) {
	t.Parallel()
	ring := make([][][]int32, 10)
	for s := range ring {
		ring[s] = [][]int32{{int32((s + 1) % 10)}, {int32(s), int32((s + 3) % 10)}}
	}
	for _, m := range []*mdp{fixture(), newMDP(2, ring)} {
		off, succ := m.Rows()
		want := NewPredecessorIndex(m, 1)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			ix := NewPredecessorIndex(m, workers)
			if &ix.foff[0] != &off[0] || len(ix.foff) != len(off) {
				t.Errorf("%d states, workers %d: the index copied the offsets instead of sharing them", m.NumStates(), workers)
			}
			if &ix.fsucc[0] != &succ[0] || len(ix.fsucc) != len(succ) {
				t.Errorf("%d states, workers %d: the index copied the successors instead of sharing them", m.NumStates(), workers)
			}
			if ix.NumEdges() != len(succ) {
				t.Errorf("%d states, workers %d: NumEdges = %d, want %d", m.NumStates(), workers, ix.NumEdges(), len(succ))
			}
			if !reflect.DeepEqual(ix.roff, want.roff) || !reflect.DeepEqual(ix.pred, want.pred) || !reflect.DeepEqual(ix.pact, want.pact) {
				t.Errorf("%d states, workers %d: the reverse index differs from the one-worker build", m.NumStates(), workers)
			}
		}
	}
}

func TestReachable(t *testing.T) {
	t.Parallel()
	got := index(fixture()).reachable()
	want := []bool{true, true, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reachable = %v, want %v", got, want)
	}
}

func TestDeadlockStates(t *testing.T) {
	t.Parallel()
	m := fixture()
	if got := index(m).DeadlockStates(); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("DeadlockStates = %v, want [2]; state 3 deadlocks but is unreachable", got)
	}
	// An unexpanded state's artificial self-loops must not read as deadlock.
	m.expanded[2] = false
	if got := index(m).DeadlockStates(); len(got) != 0 {
		t.Errorf("DeadlockStates counted the unexpanded state 2: %v", got)
	}
}

func TestDeadRegionStates(t *testing.T) {
	t.Parallel()
	m := fixture()
	goal := func(s int) bool { return s == 1 }
	if got := index(m).DeadRegionStates(goal); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("DeadRegionStates = %v, want [2] (the absorbing state cannot reach 1)", got)
	}
	// Unexpanded states count as able to reach the goal — truncation must
	// never fabricate a dead region.
	m.expanded[2] = false
	if got := index(m).DeadRegionStates(goal); len(got) != 0 {
		t.Errorf("DeadRegionStates fabricated %v from the unexpanded state", got)
	}
}

func TestPathTo(t *testing.T) {
	t.Parallel()
	m := fixture()
	if path, ok := PathTo(m, m.Initial()); !ok || len(path) != 0 {
		t.Errorf("PathTo(initial) = %v, %v; want an empty path", path, ok)
	}
	if _, ok := PathTo(m, 99); ok {
		t.Error("PathTo accepted an out-of-range target")
	}
	if _, ok := PathTo(m, 3); ok {
		t.Error("PathTo found a path to the unreachable state 3")
	}
	path, ok := PathTo(m, 2)
	if !ok || !reflect.DeepEqual(path, []Choice{{Action: 1, Outcome: 0}}) {
		t.Errorf("PathTo(2) = %v, %v; want the single choice (a1, o0)", path, ok)
	}
}

func TestMaximalTrap(t *testing.T) {
	t.Parallel()
	m := fixture()
	m.bad[2] = true
	// Safe region: 0 (only a0 avoids the bad state 2) and 1 (both actions).
	// The end component {0, 1} retains a0 in both states and a1 in state 1,
	// so every action index is covered somewhere inside: a trap.
	trap := index(m).MaximalTrap(m.Bad)
	if !trap.Exists || !trap.Reachable {
		t.Fatalf("expected a trap: %+v", trap)
	}
	if trap.States != 2 || trap.SafeRegionStates != 2 || trap.WitnessState != 0 {
		t.Errorf("trap shape: %+v, want 2 states, safe region 2, witness 0", trap)
	}
	if !reflect.DeepEqual(trap.CoveredActions, []int{0, 1}) {
		t.Errorf("CoveredActions = %v, want [0 1]", trap.CoveredActions)
	}

	// Making state 1 bad too empties the safe region: from 0 every action
	// risks a bad state.
	m.bad[1] = true
	trap = index(m).MaximalTrap(m.Bad)
	if trap.Exists || trap.SafeRegionStates != 0 {
		t.Errorf("expected an empty safe region: %+v", trap)
	}
}

func TestMaximalTrapPartialCoverage(t *testing.T) {
	t.Parallel()
	// 0 <-> 1 via a0 only; a1 always falls into the bad absorbing state 2.
	// The end component {0, 1} covers only action 0, so no trap exists and
	// CoveredActions explains the gap.
	m := newMDP(2, [][][]int32{
		{{1}, {2}},
		{{0}, {2}},
		{{2}, {2}},
	})
	m.bad[2] = true
	trap := index(m).MaximalTrap(m.Bad)
	if trap.Exists {
		t.Fatalf("no action-1 move stays safe, yet a trap was found: %+v", trap)
	}
	if !reflect.DeepEqual(trap.CoveredActions, []int{0}) {
		t.Errorf("CoveredActions = %v, want [0]", trap.CoveredActions)
	}
	if trap.SafeRegionStates != 2 {
		t.Errorf("SafeRegionStates = %d, want 2", trap.SafeRegionStates)
	}

	// Two equally covered components: {1} keeps only a1 and {2} only a0
	// (their other action falls into the bad state 3), and state 0 leaves
	// both. The coverage reported is that of the component with the smaller
	// least state, {1}, although a depth-first search from state 0 closes
	// {2} first.
	m = newMDP(2, [][][]int32{
		{{2}, {1}},
		{{3}, {1}},
		{{2}, {3}},
		{{3}, {3}},
	})
	m.bad[3] = true
	trap = index(m).MaximalTrap(m.Bad)
	if trap.Exists || trap.SafeRegionStates != 3 {
		t.Fatalf("want no trap over a safe region of 3 states: %+v", trap)
	}
	if !reflect.DeepEqual(trap.CoveredActions, []int{1}) {
		t.Errorf("CoveredActions = %v, want [1], the coverage of the component {1}", trap.CoveredActions)
	}
}

func TestStronglyConnected(t *testing.T) {
	t.Parallel()
	// 0 <-> 1 is one component, labelled with its least state 0; 2
	// (absorbing) another; 3, 4 are outside the set and must keep
	// comp = -1.
	m := fixture()
	ix := index(m)
	in := []bool{true, true, true, false, false}
	act := make([]bool, m.NumStates()*m.NumActions())
	for i := range act {
		act[i] = true
	}
	comp := []int32{-1, -1, -1, -1, -1}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	ix.tarjanSCC(sc, []int32{0, 1, 2}, in, act, comp)
	if want := []int32{0, 0, 2, -1, -1}; !reflect.DeepEqual(comp, want) {
		t.Errorf("components %v, want %v: 0 and 1 together under label 0, 2 alone, 3 and 4 untouched", comp, want)
	}
}
