package graph

import "testing"

func TestEnumerateCyclesRing(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4, 7} {
		topo := Ring(n)
		cycles := topo.EnumerateCycles(0)
		if len(cycles) != 1 {
			t.Fatalf("Ring(%d): found %d cycles, want 1", n, len(cycles))
		}
		if len(cycles[0].Phils) != n {
			t.Errorf("Ring(%d): cycle length %d, want %d", n, len(cycles[0].Phils), n)
		}
	}
}

func TestEnumerateCyclesParallelArcs(t *testing.T) {
	t.Parallel()
	// Two forks, three parallel philosophers: C(3,2) = 3 two-cycles.
	topo := Theta(1, 1, 1)
	cycles := topo.EnumerateCycles(0)
	if len(cycles) != 3 {
		t.Fatalf("Theta(1,1,1): found %d cycles, want 3", len(cycles))
	}
	for _, c := range cycles {
		if len(c.Phils) != 2 {
			t.Errorf("Theta(1,1,1): cycle length %d, want 2", len(c.Phils))
		}
	}
}

func TestEnumerateCyclesDoubledTriangle(t *testing.T) {
	t.Parallel()
	// Figure 1a: 3 fork-pairs each doubled. Cycles: 3 two-cycles (parallel
	// pairs) + triangles choosing one arc per edge: 2^3 = 8... but cycles are
	// counted as arc sets, so 8 triangles + 3 digons = 11? Each triangle picks
	// one of two parallel arcs per edge: 2*2*2 = 8. Total 11.
	topo := Figure1A()
	cycles := topo.EnumerateCycles(0)
	digons, triangles := 0, 0
	for _, c := range cycles {
		switch len(c.Phils) {
		case 2:
			digons++
		case 3:
			triangles++
		default:
			t.Errorf("unexpected cycle length %d", len(c.Phils))
		}
	}
	if digons != 3 || triangles != 8 {
		t.Errorf("Figure1A cycles: %d digons and %d triangles, want 3 and 8 (total %d)", digons, triangles, len(cycles))
	}
}

func TestEnumerateCyclesAcyclic(t *testing.T) {
	t.Parallel()
	if got := Path(5).EnumerateCycles(0); len(got) != 0 {
		t.Errorf("Path(5): found %d cycles, want 0", len(got))
	}
	if got := Star(6).EnumerateCycles(0); len(got) != 0 {
		t.Errorf("Star(6): found %d cycles, want 0", len(got))
	}
}

func TestEnumerateCyclesLimit(t *testing.T) {
	t.Parallel()
	topo := Figure1B()
	cycles := topo.EnumerateCycles(4)
	if len(cycles) != 4 {
		t.Errorf("limit 4: got %d cycles", len(cycles))
	}
	if topo.CountCycles(2) != 2 {
		t.Errorf("CountCycles(2) != 2")
	}
}

func TestCycleForkSequenceConsistency(t *testing.T) {
	t.Parallel()
	for _, topo := range []*Topology{Ring(5), Figure1A(), RingWithChord(4, 2), Theta(2, 1, 2)} {
		for _, c := range topo.EnumerateCycles(0) {
			if len(c.Phils) != len(c.ForkSeq) {
				t.Fatalf("%s: cycle with %d phils but %d forks", topo.Name(), len(c.Phils), len(c.ForkSeq))
			}
			n := len(c.Phils)
			for i, p := range c.Phils {
				a, b := c.ForkSeq[i], c.ForkSeq[(i+1)%n]
				forks := topo.Forks(p)
				ok := (forks[0] == a && forks[1] == b) || (forks[0] == b && forks[1] == a)
				if !ok {
					t.Errorf("%s: cycle arc P%d does not connect forks %d and %d (has %v)", topo.Name(), p, a, b, forks)
				}
			}
			// All forks in a simple cycle are distinct.
			seen := map[ForkID]bool{}
			for _, f := range c.ForkSeq {
				if seen[f] {
					t.Errorf("%s: cycle revisits fork %d", topo.Name(), f)
				}
				seen[f] = true
			}
		}
	}
}

func TestRingWithHighDegreeNodeDetection(t *testing.T) {
	t.Parallel()
	cyc, fork, ok := RingWithChord(5, 2).RingWithHighDegreeNode()
	if !ok {
		t.Fatal("RingWithChord(5,2): Theorem 1 structure not found")
	}
	if fork != 0 && fork != 2 {
		t.Errorf("high-degree fork = %d, want 0 or 2", fork)
	}
	if len(cyc.Phils) < 2 {
		t.Errorf("witness cycle too short: %d", len(cyc.Phils))
	}

	if _, _, ok := Ring(6).RingWithHighDegreeNode(); ok {
		t.Error("Ring(6) should not contain the Theorem 1 structure")
	}
}

func TestThetaPairDetection(t *testing.T) {
	t.Parallel()
	u, v, ok := Theta(2, 3, 2).ThetaPair()
	if !ok {
		t.Fatal("Theta(2,3,2): theta pair not found")
	}
	if !((u == 0 && v == 1) || (u == 1 && v == 0)) {
		t.Errorf("theta pair = (%d,%d), want the two hubs (0,1)", u, v)
	}
	if _, _, ok := RingWithChord(6, 3).ThetaPair(); !ok {
		// Ring + chord creates two hubs (0 and 3) joined by three paths.
		t.Error("RingWithChord(6,3) should contain a theta pair")
	}
	if _, _, ok := Ring(5).ThetaPair(); ok {
		t.Error("Ring(5) should not contain a theta pair")
	}
	if _, _, ok := Path(4).ThetaPair(); ok {
		t.Error("Path(4) should not contain a theta pair")
	}
}

func TestFigure1TheoremColumns(t *testing.T) {
	t.Parallel()
	// All four Figure 1 examples relax the simple-ring assumption; the first
	// two (doubled polygons) and the reconstructions contain rings whose forks
	// have degree >= 3, so LR1's guarantee is void on all of them.
	for _, topo := range Figure1() {
		if !topo.SatisfiesTheorem1() {
			t.Errorf("%s: expected Theorem 1 structure", topo.Name())
		}
	}
	// The doubled polygons also contain theta pairs (two parallel arcs plus a
	// path around), so LR2's guarantee is void there too.
	if !Figure1A().SatisfiesTheorem2() {
		t.Error("Figure1A: expected Theorem 2 structure")
	}
	if !Figure1B().SatisfiesTheorem2() {
		t.Error("Figure1B: expected Theorem 2 structure")
	}
}

func BenchmarkEnumerateCyclesFigure1B(b *testing.B) {
	topo := Figure1B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = topo.EnumerateCycles(0)
	}
}

func BenchmarkThetaPairGrid(b *testing.B) {
	topo := Grid(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = topo.ThetaPair()
	}
}
