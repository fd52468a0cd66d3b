package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRingStructure(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3, 5, 12, 101} {
		topo := Ring(n)
		if got := topo.NumPhilosophers(); got != n {
			t.Errorf("Ring(%d): %d philosophers, want %d", n, got, n)
		}
		if got := topo.NumForks(); got != n {
			t.Errorf("Ring(%d): %d forks, want %d", n, got, n)
		}
		if !connected(topo) {
			t.Errorf("Ring(%d): not connected", n)
		}
		for f := 0; f < n; f++ {
			if d := topo.Degree(ForkID(f)); d != 2 {
				t.Errorf("Ring(%d): fork %d degree %d, want 2", n, f, d)
			}
		}
	}
}

// connected reports whether every fork of topo is reachable from fork 0
// through shared philosophers.
func connected(topo *Topology) bool {
	seen := make([]bool, topo.NumForks())
	seen[0] = true
	stack := []ForkID{0}
	reached := 1
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range topo.PhilosophersAt(f) {
			if g := topo.OtherFork(p, f); !seen[g] {
				seen[g] = true
				reached++
				stack = append(stack, g)
			}
		}
	}
	return reached == topo.NumForks()
}

func TestRingPanicsOnTooSmall(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Ring(1) did not panic")
		}
	}()
	Ring(1)
}

func TestBuilderRejectsIdenticalForks(t *testing.T) {
	t.Parallel()
	b := NewBuilder("bad", 3)
	b.AddPhilosopher(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a philosopher with identical forks")
	}
}

func TestBuilderRejectsOutOfRangeFork(t *testing.T) {
	t.Parallel()
	b := NewBuilder("bad", 3)
	b.AddPhilosopher(0, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an out-of-range fork")
	}
	b2 := NewBuilder("bad2", 3)
	b2.AddPhilosopher(-1, 2)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted a negative fork")
	}
}

func TestBuilderRejectsEmptySystem(t *testing.T) {
	t.Parallel()
	if _, err := NewBuilder("empty", 4).Build(); err == nil {
		t.Fatal("Build accepted a system with no philosophers")
	}
	if _, err := NewBuilder("tiny", 1).Build(); err == nil {
		t.Fatal("Build accepted a system with fewer than 2 forks")
	}
}

func TestOtherForkAndSideOf(t *testing.T) {
	t.Parallel()
	topo := Ring(5)
	for p := 0; p < 5; p++ {
		pid := PhilID(p)
		l, r := topo.Left(pid), topo.Right(pid)
		if topo.OtherFork(pid, l) != r {
			t.Errorf("OtherFork(P%d, left) != right", p)
		}
		if topo.OtherFork(pid, r) != l {
			t.Errorf("OtherFork(P%d, right) != left", p)
		}
	}
}

func TestOtherForkPanicsOnNonAdjacent(t *testing.T) {
	t.Parallel()
	topo := Ring(5)
	defer func() {
		if recover() == nil {
			t.Fatal("OtherFork with non-adjacent fork did not panic")
		}
	}()
	topo.OtherFork(0, 3)
}

func TestSlotRoundTrip(t *testing.T) {
	t.Parallel()
	topo := Figure1A()
	for f := 0; f < topo.NumForks(); f++ {
		fid := ForkID(f)
		for i, p := range topo.PhilosophersAt(fid) {
			if got := topo.Slot(fid, p); got != i {
				t.Errorf("Slot(f%d, P%d) = %d, want %d", f, p, got, i)
			}
		}
	}
}

func TestSideString(t *testing.T) {
	t.Parallel()
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("Side.String incorrect")
	}
}

func TestFigure1Counts(t *testing.T) {
	t.Parallel()
	want := []struct {
		phils, forks int
	}{{6, 3}, {12, 6}, {16, 12}, {10, 9}}
	topos := Figure1()
	if len(topos) != 4 {
		t.Fatalf("Figure1 returned %d topologies, want 4", len(topos))
	}
	for i, topo := range topos {
		if topo.NumPhilosophers() != want[i].phils || topo.NumForks() != want[i].forks {
			t.Errorf("Figure1[%d] %q = %d phils / %d forks, want %d/%d",
				i, topo.Name(), topo.NumPhilosophers(), topo.NumForks(), want[i].phils, want[i].forks)
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("Figure1[%d] invalid: %v", i, err)
		}
		if !connected(topo) {
			t.Errorf("Figure1[%d] %q not connected", i, topo.Name())
		}
	}
}

func TestFigure1AShape(t *testing.T) {
	t.Parallel()
	topo := Figure1A()
	// Every fork is shared by four philosophers (two doubled edges).
	for f := 0; f < topo.NumForks(); f++ {
		if d := topo.Degree(ForkID(f)); d != 4 {
			t.Errorf("Figure1A fork %d degree %d, want 4", f, d)
		}
	}
}

func TestTheorem1MinimalShape(t *testing.T) {
	t.Parallel()
	topo := Theorem1Minimal()
	if topo.NumPhilosophers() != 4 || topo.NumForks() != 3 {
		t.Fatalf("Theorem1Minimal = %d phils, %d forks; want 4, 3", topo.NumPhilosophers(), topo.NumForks())
	}
	if !topo.SatisfiesTheorem1() {
		t.Error("Theorem1Minimal does not satisfy the Theorem 1 structure")
	}
}

func TestTheorem2MinimalShape(t *testing.T) {
	t.Parallel()
	topo := Theorem2Minimal()
	if topo.NumPhilosophers() != 3 || topo.NumForks() != 2 {
		t.Fatalf("Theorem2Minimal = %d phils, %d forks; want 3, 2", topo.NumPhilosophers(), topo.NumForks())
	}
	if !topo.SatisfiesTheorem2() {
		t.Error("Theorem2Minimal does not satisfy the Theorem 2 structure")
	}
	if !topo.SatisfiesTheorem1() {
		t.Error("Theorem2Minimal should also satisfy Theorem 1 (a 2-cycle with a degree-3 fork)")
	}
}

func TestClassicRingDoesNotSatisfyTheorems(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 5, 8} {
		topo := Ring(n)
		if topo.SatisfiesTheorem1() {
			t.Errorf("Ring(%d) should not satisfy Theorem 1 structure", n)
		}
		if topo.SatisfiesTheorem2() {
			t.Errorf("Ring(%d) should not satisfy Theorem 2 structure", n)
		}
	}
}

func TestPathAndStarAreAcyclic(t *testing.T) {
	t.Parallel()
	if len(Path(6).EnumerateCycles(1)) != 0 {
		t.Error("Path(6) reports a cycle")
	}
	if len(Star(5).EnumerateCycles(1)) != 0 {
		t.Error("Star(5) reports a cycle")
	}
	if len(Ring(4).EnumerateCycles(1)) == 0 {
		t.Error("Ring(4) reports no cycle")
	}
	if len(Theta(1, 1, 1).EnumerateCycles(1)) == 0 {
		t.Error("Theta(1,1,1) reports no cycle")
	}
}

func TestStarDegrees(t *testing.T) {
	t.Parallel()
	topo := Star(7)
	if topo.Degree(0) != 7 {
		t.Errorf("Star(7) hub degree %d, want 7", topo.Degree(0))
	}
	for f := 1; f <= 7; f++ {
		if topo.Degree(ForkID(f)) != 1 {
			t.Errorf("Star(7) leaf fork %d degree %d, want 1", f, topo.Degree(ForkID(f)))
		}
	}
	if topo.MaxDegree() != 7 {
		t.Errorf("Star(7) MaxDegree %d, want 7", topo.MaxDegree())
	}
}

func TestGridStructure(t *testing.T) {
	t.Parallel()
	topo := Grid(3, 4)
	if topo.NumForks() != 12 {
		t.Errorf("Grid(3,4) forks = %d, want 12", topo.NumForks())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if topo.NumPhilosophers() != 17 {
		t.Errorf("Grid(3,4) philosophers = %d, want 17", topo.NumPhilosophers())
	}
	if !connected(topo) {
		t.Error("Grid(3,4) not connected")
	}
	if len(topo.EnumerateCycles(1)) == 0 {
		t.Error("Grid(3,4) should contain cycles")
	}
}

func TestCompleteForkGraph(t *testing.T) {
	t.Parallel()
	topo := CompleteForkGraph(5)
	if topo.NumPhilosophers() != 10 {
		t.Errorf("CompleteForkGraph(5) has %d philosophers, want 10", topo.NumPhilosophers())
	}
	for f := 0; f < 5; f++ {
		if topo.Degree(ForkID(f)) != 4 {
			t.Errorf("CompleteForkGraph(5) fork %d degree %d, want 4", f, topo.Degree(ForkID(f)))
		}
	}
}

func TestRandomMultigraphValidAndDeterministic(t *testing.T) {
	t.Parallel()
	a := RandomMultigraph(20, 8, 99)
	b := RandomMultigraph(20, 8, 99)
	if a.NumPhilosophers() != 20 || a.NumForks() != 8 {
		t.Fatalf("RandomMultigraph(20,8) = %d/%d", a.NumPhilosophers(), a.NumForks())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("RandomMultigraph invalid: %v", err)
	}
	if !connected(a) {
		t.Error("RandomMultigraph(20,8) should be connected (spanning tree included)")
	}
	for p := 0; p < a.NumPhilosophers(); p++ {
		if a.Forks(PhilID(p)) != b.Forks(PhilID(p)) {
			t.Fatalf("RandomMultigraph not deterministic for equal seeds at philosopher %d", p)
		}
	}
	c := RandomMultigraph(20, 8, 100)
	diff := false
	for p := 0; p < 20; p++ {
		if a.Forks(PhilID(p)) != c.Forks(PhilID(p)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("RandomMultigraph with different seeds produced identical topologies")
	}
}

func TestRandomMultigraphProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, pRaw, fRaw uint8) bool {
		numForks := int(fRaw%10) + 2
		numPhils := int(pRaw%30) + numForks // ensure connectivity possible
		topo := RandomMultigraph(numPhils, numForks, seed)
		return topo.Validate() == nil && connected(topo) &&
			topo.NumPhilosophers() == numPhils && topo.NumForks() == numForks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringDescription(t *testing.T) {
	t.Parallel()
	s := Figure1A().String()
	if !strings.Contains(s, "6 philosophers") || !strings.Contains(s, "3 forks") {
		t.Errorf("String() = %q, want philosopher and fork counts", s)
	}
}

func TestThetaShapes(t *testing.T) {
	t.Parallel()
	topo := Theta(2, 2, 3)
	// Forks: 2 hubs + (1 + 1 + 2) internal = 6; philosophers: 2+2+3 = 7.
	if topo.NumForks() != 6 || topo.NumPhilosophers() != 7 {
		t.Fatalf("Theta(2,2,3) = %d forks, %d phils; want 6, 7", topo.NumForks(), topo.NumPhilosophers())
	}
	if !topo.SatisfiesTheorem2() {
		t.Error("Theta(2,2,3) should satisfy the Theorem 2 structure")
	}
	if topo.Degree(0) != 3 || topo.Degree(1) != 3 {
		t.Errorf("Theta hubs should have degree 3, got %d and %d", topo.Degree(0), topo.Degree(1))
	}
}

func TestRingWithChordTheorem1(t *testing.T) {
	t.Parallel()
	for _, k := range []int{3, 4, 6, 8} {
		topo := RingWithChord(k, k/2)
		if !topo.SatisfiesTheorem1() {
			t.Errorf("RingWithChord(%d) should satisfy Theorem 1 structure", k)
		}
		if topo.NumPhilosophers() != k+1 {
			t.Errorf("RingWithChord(%d) has %d philosophers, want %d", k, topo.NumPhilosophers(), k+1)
		}
	}
}
