package graph

import (
	"strings"
	"testing"
)

// enumerateGroup is an independent closure of the declared generators used to
// cross-check the canonicalizer's enumeration.
func enumerateGroup(t *Topology, gens []Automorphism) []Automorphism {
	id := identityAutomorphism(t)
	seen := map[string]bool{id.permKey(): true}
	group := []Automorphism{id}
	for q := []Automorphism{id}; len(q) > 0; {
		cur := q[0]
		q = q[1:]
		for _, g := range gens {
			next := compose(g, cur)
			if key := next.permKey(); !seen[key] {
				seen[key] = true
				group = append(group, next)
				q = append(q, next)
			}
		}
	}
	return group
}

func TestRingAutomorphismGroupIsDihedral(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3, 4, 5, 8} {
		topo := Ring(n)
		gens := topo.Automorphisms()
		if len(gens) != 2 {
			t.Fatalf("Ring(%d): %d generators, want 2 (rotation + reflection)", n, len(gens))
		}
		for i, g := range gens {
			if err := g.Validate(topo); err != nil {
				t.Errorf("Ring(%d) generator %d invalid: %v", n, i, err)
			}
		}
		c, err := NewOrbitCanonicalizer(topo, CanonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != 2*n {
			t.Errorf("Ring(%d): group order %d, want dihedral order %d", n, c.Size(), 2*n)
		}
		if c.Trivial() {
			t.Errorf("Ring(%d): canonicalizer reports trivial", n)
		}
		// Restricting to orientation-preserving elements keeps the cyclic
		// rotation subgroup.
		cp, err := NewOrbitCanonicalizer(topo, CanonOptions{OrientationPreserving: true})
		if err != nil {
			t.Fatal(err)
		}
		if cp.Size() != n {
			t.Errorf("Ring(%d) orientation-preserving: order %d, want %d", n, cp.Size(), n)
		}
	}
}

func TestStarAutomorphismGroupIsLeafPermutations(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		n, want int
	}{
		{1, 1},  // no symmetry declared
		{2, 2},  // swap of the two leaves
		{3, 6},  // S_3
		{4, 24}, // S_4
		{5, 120},
	} {
		topo := Star(tc.n)
		c, err := NewOrbitCanonicalizer(topo, CanonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != tc.want {
			t.Errorf("Star(%d): group order %d, want %d", tc.n, c.Size(), tc.want)
		}
		// Every leaf permutation keeps the hub on the left of every
		// philosopher, so the orientation filter changes nothing.
		cp, err := NewOrbitCanonicalizer(topo, CanonOptions{OrientationPreserving: true})
		if err != nil {
			t.Fatal(err)
		}
		if cp.Size() != c.Size() {
			t.Errorf("Star(%d): orientation filter shrank %d to %d, want no change", tc.n, c.Size(), cp.Size())
		}
	}
}

func TestGroupSizeCapFallsBackToGeneratorPrefix(t *testing.T) {
	t.Parallel()
	// Star(6) has |S_6| = 720 > DefaultMaxGroupSize; dropping the transposition
	// generator leaves the cyclic leaf-rotation subgroup of order 6.
	c, err := NewOrbitCanonicalizer(Star(6), CanonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 6 {
		t.Errorf("Star(6) capped at %d: group order %d, want the rotation subgroup of order 6", DefaultMaxGroupSize, c.Size())
	}
	// An explicit generous cap admits the full group.
	cf, err := NewOrbitCanonicalizer(Star(6), CanonOptions{MaxGroupSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if cf.Size() != 720 {
		t.Errorf("Star(6) with cap 1000: group order %d, want 720", cf.Size())
	}
}

func TestStabilizerRestriction(t *testing.T) {
	t.Parallel()
	// The setwise stabilizer of {0} in the dihedral group of Ring(4) contains
	// the identity and the reflection fixing philosopher 0... the declared
	// reflection maps philosopher p to n-1-p, so it fixes no philosopher of
	// Ring(4); the stabilizer of {0} under the enumerated group is whatever
	// elements map 0 to 0. Cross-check against a direct filter.
	topo := Ring(4)
	full, err := NewOrbitCanonicalizer(topo, CanonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stab, err := NewOrbitCanonicalizer(topo, CanonOptions{Stabilize: []PhilID{0}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range enumerateGroup(topo, topo.Automorphisms()) {
		if a.Phil[0] == 0 {
			want++
		}
	}
	if stab.Size() != want {
		t.Errorf("stabilizer of {0}: order %d, want %d (of full %d)", stab.Size(), want, full.Size())
	}
	if stab.Size() >= full.Size() {
		t.Errorf("stabilizer did not shrink the group: %d vs %d", stab.Size(), full.Size())
	}
	// Stabilizing every philosopher is no restriction at all.
	all, err := NewOrbitCanonicalizer(topo, CanonOptions{Stabilize: []PhilID{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if all.Size() != full.Size() {
		t.Errorf("stabilizer of the full set: order %d, want %d", all.Size(), full.Size())
	}
}

func TestAsymmetricBuildersDeclareNoAutomorphisms(t *testing.T) {
	t.Parallel()
	for _, topo := range []*Topology{
		Theorem1Minimal(), Theorem2Minimal(), RingWithChord(4, 2),
		RingWithPendant(3), Path(3), Grid(2, 2), DoubledPolygon(3), Figure1A(),
	} {
		if gens := topo.Automorphisms(); len(gens) != 0 {
			t.Errorf("%s: %d declared generators, want 0", topo.Name(), len(gens))
		}
		c, err := NewOrbitCanonicalizer(topo, CanonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Trivial() || c.Size() != 1 {
			t.Errorf("%s: canonicalizer not trivial (order %d)", topo.Name(), c.Size())
		}
	}
}

func TestAutomorphismValidate(t *testing.T) {
	t.Parallel()
	topo := Ring(3)
	id := identityAutomorphism(topo)
	if err := id.Validate(topo); err != nil {
		t.Fatalf("identity: %v", err)
	}

	short := Automorphism{Phil: []PhilID{0, 1}, Fork: []ForkID{0, 1, 2}}
	if err := short.Validate(topo); err == nil || !strings.Contains(err.Error(), "philosopher images") {
		t.Errorf("short table: err = %v, want philosopher-images error", err)
	}

	dup := identityAutomorphism(topo)
	dup.Phil[1] = 0
	if err := dup.Validate(topo); err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Errorf("duplicated image: err = %v, want permutation error", err)
	}

	// A fork permutation that breaks adjacency: swapping forks 0 and 1 while
	// fixing the philosophers is not an automorphism of the ring.
	bad := identityAutomorphism(topo)
	bad.Fork[0], bad.Fork[1] = 1, 0
	if err := bad.Validate(topo); err == nil || !strings.Contains(err.Error(), "forks map to") {
		t.Errorf("adjacency-breaking: err = %v, want fork-pair error", err)
	}
}

func TestAutomorphismsReturnsDeepCopy(t *testing.T) {
	t.Parallel()
	topo := Ring(3)
	a := topo.Automorphisms()
	a[0].Phil[0] = 2
	b := topo.Automorphisms()
	if b[0].Phil[0] == 2 {
		t.Error("mutating the returned generators leaked into the topology")
	}
}

func TestOrientationPreserving(t *testing.T) {
	t.Parallel()
	topo := Ring(5)
	gens := topo.Automorphisms()
	if !gens[0].OrientationPreserving(topo) {
		t.Error("rotation reported orientation-reversing")
	}
	if gens[1].OrientationPreserving(topo) {
		t.Error("reflection reported orientation-preserving")
	}
}

func TestCanonicalizerPermsIdentityFirst(t *testing.T) {
	t.Parallel()
	c, err := NewOrbitCanonicalizer(Ring(4), CanonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	perms := c.Perms()
	for i, img := range perms[0].PhilImg {
		if img != int32(i) {
			t.Fatalf("perms[0] is not the identity: PhilImg[%d] = %d", i, img)
		}
	}
	for i, img := range perms[0].ForkImg {
		if img != int32(i) {
			t.Fatalf("perms[0] is not the identity: ForkImg[%d] = %d", i, img)
		}
	}
	// Src tables invert Img tables on every element.
	for pi, p := range perms {
		for i, img := range p.PhilImg {
			if p.PhilSrc[img] != int32(i) {
				t.Fatalf("perm %d: PhilSrc does not invert PhilImg at %d", pi, i)
			}
		}
		for i, img := range p.ForkImg {
			if p.ForkSrc[img] != int32(i) {
				t.Fatalf("perm %d: ForkSrc does not invert ForkImg at %d", pi, i)
			}
		}
	}
}
