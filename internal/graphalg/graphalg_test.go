package graphalg

import (
	"reflect"
	"testing"
)

// mdp is a hand-built StateView fixture: succs[s][a] lists the successor
// states of action a in state s, probs are spread uniformly.
type mdp struct {
	nActions int
	initial  int
	succs    [][][]int32
	probs    [][][]float64
	bad      []bool
	expanded []bool
}

func newMDP(nActions int, succs [][][]int32) *mdp {
	m := &mdp{nActions: nActions, succs: succs}
	m.probs = make([][][]float64, len(succs))
	m.bad = make([]bool, len(succs))
	m.expanded = make([]bool, len(succs))
	for s := range succs {
		if len(succs[s]) != nActions {
			panic("fixture: wrong action count")
		}
		m.expanded[s] = true
		m.probs[s] = make([][]float64, nActions)
		for a := range succs[s] {
			k := len(succs[s][a])
			m.probs[s][a] = make([]float64, k)
			for i := range m.probs[s][a] {
				m.probs[s][a][i] = 1 / float64(k)
			}
		}
	}
	return m
}

func (m *mdp) NumStates() int           { return len(m.succs) }
func (m *mdp) NumActions() int          { return m.nActions }
func (m *mdp) Initial() int             { return m.initial }
func (m *mdp) Succs(s, a int) []int32   { return m.succs[s][a] }
func (m *mdp) Probs(s, a int) []float64 { return m.probs[s][a] }
func (m *mdp) Bad(s int) bool           { return m.bad[s] }
func (m *mdp) Expanded(s int) bool      { return m.expanded[s] }

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
}

func TestStronglyConnected(t *testing.T) {
	t.Parallel()
	// 0 <-> 1 is one component; 2 (absorbing) another; 3, 4 are outside
	// the set and must keep comp = -1.
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
	n := ix.tarjanSCC(sc, []int32{0, 1, 2}, in, act, comp)
	if n != 2 {
		t.Fatalf("component count = %d, want 2 (comp %v)", n, comp)
	}
	if comp[0] != comp[1] || comp[0] == comp[2] {
		t.Errorf("components %v: want 0 and 1 together, 2 separate", comp)
	}
	if comp[3] != -1 || comp[4] != -1 {
		t.Errorf("states outside the set must keep comp -1: %v", comp)
	}
}
