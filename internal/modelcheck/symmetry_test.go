package modelcheck

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/sim"
)

// mustCanon builds the full-group canonicalizer of a topology.
func mustCanon(t *testing.T, topo *graph.Topology, opts graph.CanonOptions) *graph.OrbitCanonicalizer {
	t.Helper()
	c, err := graph.NewOrbitCanonicalizer(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSymmetryReducesStateCount pins the headline reduction: quotienting
// ring-n by its dihedral group shrinks the LR1 state space by at least n (the
// rotation factor; most orbits also merge their reflections, approaching 2n).
func TestSymmetryReducesStateCount(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4, 5} {
		topo := graph.Ring(n)
		prog, err := algo.New("LR1", algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Explore(topo, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		quot, err := Explore(topo, prog, Options{Symmetry: mustCanon(t, topo, graph.CanonOptions{})})
		if err != nil {
			t.Fatal(err)
		}
		if !quot.Symmetric() || quot.canon == nil {
			t.Fatalf("ring-%d: quotient space does not report Symmetric", n)
		}
		if plain.Symmetric() {
			t.Fatalf("ring-%d: unreduced space reports Symmetric", n)
		}
		ratio := float64(plain.NumStates()) / float64(quot.NumStates())
		t.Logf("ring-%d LR1: %d -> %d states (%.2fx)", n, plain.NumStates(), quot.NumStates(), ratio)
		if ratio < float64(n) {
			t.Errorf("ring-%d: reduction %.2fx below the rotation factor %d", n, ratio, n)
		}
	}
}

// TestSymmetryDeterministicAcrossWorkersAndShards pins the quotient's dense
// numbering, canonical keys and trap witnesses to be identical for every
// (workers, shards) configuration — the same determinism contract the
// unreduced exploration has.
func TestSymmetryDeterministicAcrossWorkersAndShards(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(4)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := mustCanon(t, topo, graph.CanonOptions{})
	explore := func(workers, shards int) *StateSpace {
		ss, err := Explore(topo, prog, Options{Symmetry: canon, Workers: workers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	ref := explore(1, 1)
	refTrap := ref.FindStarvationTrap()
	for _, cfg := range [][2]int{{2, 4}, {4, 1}, {8, 8}} {
		ss := explore(cfg[0], cfg[1])
		if ss.NumStates() != ref.NumStates() {
			t.Fatalf("workers=%d shards=%d: %d states, want %d", cfg[0], cfg[1], ss.NumStates(), ref.NumStates())
		}
		keys, refKeys := denseKeys(ss), denseKeys(ref)
		for s := 0; s < ref.NumStates(); s++ {
			if keys[s] != refKeys[s] {
				t.Fatalf("workers=%d shards=%d: canonical key of state %d differs", cfg[0], cfg[1], s)
			}
		}
		trap := ss.FindStarvationTrap()
		if trap.Exists != refTrap.Exists || trap.WitnessState != refTrap.WitnessState || trap.States != refTrap.States {
			t.Errorf("workers=%d shards=%d: trap analysis differs from sequential", cfg[0], cfg[1])
		}
	}
}

// TestSymmetryRepresentativeKeys checks that the quotient stores the initial
// state — group-invariant, so its own orbit representative — under its
// orbit-canonical key.
func TestSymmetryRepresentativeKeys(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	prog, err := algo.New("LR2", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := mustCanon(t, topo, graph.CanonOptions{})
	ss, err := Explore(topo, prog, Options{Symmetry: canon})
	if err != nil {
		t.Fatal(err)
	}
	w0 := sim.NewWorld(topo)
	prog.Init(w0)
	if got, want := denseKeys(ss)[ss.Initial()], string(w0.AppendCanonicalKey(canon, nil)); got != want {
		t.Errorf("initial canonical key mismatch")
	}
}

// TestSymmetryTopologyMismatch pins the validation error: a canonicalizer
// built for one topology must be rejected by an exploration of another.
func TestSymmetryTopologyMismatch(t *testing.T) {
	t.Parallel()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := mustCanon(t, graph.Ring(4), graph.CanonOptions{})
	if _, err := Explore(graph.Ring(3), prog, Options{Symmetry: canon}); err == nil {
		t.Fatal("Explore accepted a canonicalizer of the wrong topology")
	}
}

// TestSymmetryTrivialGroupMatchesPlain checks that a trivial canonicalizer
// (asymmetric topology) is normalized away: the space is bit-compatible with
// the unreduced exploration and does not report Symmetric.
func TestSymmetryTrivialGroupMatchesPlain(t *testing.T) {
	t.Parallel()
	topo := graph.Theorem2Minimal()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(topo, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	quot, err := Explore(topo, prog, Options{Symmetry: mustCanon(t, topo, graph.CanonOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	if quot.Symmetric() {
		t.Fatal("trivial group not normalized away")
	}
	if quot.NumStates() != plain.NumStates() {
		t.Fatalf("trivial quotient has %d states, plain %d", quot.NumStates(), plain.NumStates())
	}
	quotKeys, plainKeys := denseKeys(quot), denseKeys(plain)
	for s := 0; s < plain.NumStates(); s++ {
		if quotKeys[s] != plainKeys[s] {
			t.Fatalf("trivial quotient key of state %d differs from plain", s)
		}
	}
}

// TestSymmetryTruncationDeterministic checks that a state cap truncates the
// quotient exploration at the same orbit for every (workers, shards)
// configuration, and that the truncated space stays analyzable.
func TestSymmetryTruncationDeterministic(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(4)
	prog, err := algo.New("LR2", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := mustCanon(t, topo, graph.CanonOptions{})
	const cap = 700
	ref, err := Explore(topo, prog, Options{Symmetry: canon, MaxStates: cap, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Truncated {
		t.Fatalf("cap %d did not truncate (got %d states); the test needs a truncated run", cap, ref.NumStates())
	}
	for _, cfg := range [][2]int{{2, 4}, {4, 2}} {
		ss, err := Explore(topo, prog, Options{Symmetry: canon, MaxStates: cap, Workers: cfg[0], Shards: cfg[1]})
		if err != nil {
			t.Fatal(err)
		}
		if !ss.Truncated || ss.NumStates() != ref.NumStates() {
			t.Fatalf("workers=%d shards=%d: truncated=%v states=%d, want truncated=true states=%d",
				cfg[0], cfg[1], ss.Truncated, ss.NumStates(), ref.NumStates())
		}
		keys, refKeys := denseKeys(ss), denseKeys(ref)
		for s := 0; s < ref.NumStates(); s++ {
			if keys[s] != refKeys[s] {
				t.Fatalf("workers=%d shards=%d: truncated key sequence diverges at state %d", cfg[0], cfg[1], s)
			}
		}
	}
	// The truncated quotient is still a well-formed view: the analyses run.
	ref.DeadRegionStates()
	ref.FindStarvationTrap()
}

// TestSymmetryExploreAllocsPerState pins the allocation budget of the
// quotient hot path: permute-and-compare into the pooled scratch buffer must
// not add per-state heap allocations beyond the unreduced explorer's budget
// (small headroom for the pool bookkeeping and group tables).
func TestSymmetryExploreAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	const maxAllocsPerState = 3.0
	topo := graph.Ring(4)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := mustCanon(t, topo, graph.CanonOptions{})
	opts := Options{Symmetry: canon, Workers: 1, Shards: 1}
	ss, err := Explore(topo, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	states := float64(ss.NumStates())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Explore(topo, prog, opts); err != nil {
			t.Fatal(err)
		}
	})
	perState := allocs / states
	t.Logf("ring-4 LR1 quotient: %.0f states, %.0f allocs, %.2f allocs/state", states, allocs, perState)
	if perState > maxAllocsPerState {
		t.Errorf("quotient exploration allocates %.2f per state, over the %.1f budget", perState, maxAllocsPerState)
	}
}
