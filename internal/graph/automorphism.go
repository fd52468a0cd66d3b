package graph

import (
	"fmt"
	"sort"
)

// This file implements the symmetry seam used by the model checker's
// orbit-quotient exploration: topologies declare the generators of their
// automorphism group, and an OrbitCanonicalizer enumerates the (possibly
// restricted) group once and precomputes the flat permutation tables the
// simulator needs to encode a world's lexicographically-minimal image
// without allocating.
//
// An automorphism of a generalized dining-philosopher system is a pair of
// permutations (one of the philosophers, one of the forks) that preserves
// the multigraph structure: the unordered fork pair of every philosopher
// maps onto the unordered fork pair of its image. Orientation-preserving
// automorphisms additionally map left forks to left forks; reflections swap
// the sides, which is only sound for programs whose probabilistic choice is
// left/right symmetric (see the SideSymmetric gate in package dining).

// Automorphism is one symmetry of a topology, given as the image tables of
// its two permutations: Phil[p] is the philosopher that p maps to and
// Fork[f] is the fork that f maps to.
type Automorphism struct {
	Phil []PhilID
	Fork []ForkID
}

// identityAutomorphism returns the identity symmetry of t.
func identityAutomorphism(t *Topology) Automorphism {
	a := Automorphism{
		Phil: make([]PhilID, t.NumPhilosophers()),
		Fork: make([]ForkID, t.NumForks()),
	}
	for p := range a.Phil {
		a.Phil[p] = PhilID(p)
	}
	for f := range a.Fork {
		a.Fork[f] = ForkID(f)
	}
	return a
}

// clone returns an independent copy of a.
func (a Automorphism) clone() Automorphism {
	return Automorphism{
		Phil: append([]PhilID(nil), a.Phil...),
		Fork: append([]ForkID(nil), a.Fork...),
	}
}

// Validate checks that a is a genuine automorphism of t: both tables are
// permutations of the right size and every philosopher's unordered fork
// pair maps onto the fork pair of its image.
func (a Automorphism) Validate(t *Topology) error {
	if len(a.Phil) != t.NumPhilosophers() {
		return fmt.Errorf("graph: automorphism has %d philosopher images, topology %q has %d philosophers",
			len(a.Phil), t.Name(), t.NumPhilosophers())
	}
	if len(a.Fork) != t.NumForks() {
		return fmt.Errorf("graph: automorphism has %d fork images, topology %q has %d forks",
			len(a.Fork), t.Name(), t.NumForks())
	}
	seenP := make([]bool, len(a.Phil))
	for p, q := range a.Phil {
		if q < 0 || int(q) >= len(a.Phil) || seenP[q] {
			return fmt.Errorf("graph: philosopher images are not a permutation (image of %d is %d)", p, q)
		}
		seenP[q] = true
	}
	seenF := make([]bool, len(a.Fork))
	for f, g := range a.Fork {
		if g < 0 || int(g) >= len(a.Fork) || seenF[g] {
			return fmt.Errorf("graph: fork images are not a permutation (image of %d is %d)", f, g)
		}
		seenF[g] = true
	}
	for p := 0; p < t.NumPhilosophers(); p++ {
		srcL, srcR := a.Fork[t.Left(PhilID(p))], a.Fork[t.Right(PhilID(p))]
		q := a.Phil[p]
		dstL, dstR := t.Left(q), t.Right(q)
		if !(srcL == dstL && srcR == dstR) && !(srcL == dstR && srcR == dstL) {
			return fmt.Errorf("graph: philosopher %d's forks map to {%d,%d} but its image %d uses {%d,%d}",
				p, srcL, srcR, q, dstL, dstR)
		}
	}
	return nil
}

// OrientationPreserving reports whether a maps every philosopher's left
// fork to its image's left fork (and hence right to right). Reflections of
// a ring are the canonical orientation-reversing example.
func (a Automorphism) OrientationPreserving(t *Topology) bool {
	for p := 0; p < t.NumPhilosophers(); p++ {
		if a.Fork[t.Left(PhilID(p))] != t.Left(a.Phil[p]) {
			return false
		}
	}
	return true
}

// compose returns the automorphism "first b, then a" (image tables
// a.Phil[b.Phil[p]], a.Fork[b.Fork[f]]).
func compose(a, b Automorphism) Automorphism {
	c := Automorphism{
		Phil: make([]PhilID, len(a.Phil)),
		Fork: make([]ForkID, len(a.Fork)),
	}
	for p := range c.Phil {
		c.Phil[p] = a.Phil[b.Phil[p]]
	}
	for f := range c.Fork {
		c.Fork[f] = a.Fork[b.Fork[f]]
	}
	return c
}

// permKey returns a canonical dedup key for a's image tables.
func (a Automorphism) permKey() string {
	buf := make([]byte, 0, 4*(len(a.Phil)+len(a.Fork)))
	for _, q := range a.Phil {
		buf = append(buf, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
	}
	for _, g := range a.Fork {
		buf = append(buf, byte(g), byte(g>>8), byte(g>>16), byte(g>>24))
	}
	return string(buf)
}

// Automorphisms returns the declared generator set of the topology's
// automorphism group (not the full group): rotations plus a reflection for
// rings, leaf permutations for stars, and the empty set for topologies that
// declare no symmetry (whose only known automorphism is then the identity).
// The returned slice is a deep copy.
func (t *Topology) Automorphisms() []Automorphism {
	out := make([]Automorphism, len(t.aut))
	for i, a := range t.aut {
		out[i] = a.clone()
	}
	return out
}

// declareAutomorphisms attaches validated generators to a freshly built
// topology. It is called by the symmetric constructors only; an invalid
// generator is a programming bug, so it panics like MustBuild.
func declareAutomorphisms(t *Topology, gens ...Automorphism) *Topology {
	for i, a := range gens {
		if err := a.Validate(t); err != nil {
			panic(fmt.Sprintf("graph: invalid automorphism generator %d of %q: %v", i, t.Name(), err))
		}
	}
	t.aut = gens
	return t
}

// DefaultMaxGroupSize bounds the enumerated automorphism group. Generators
// whose closure exceeds the bound are dropped from the tail of the
// generator list until the closure fits (any subgroup yields a sound — just
// coarser — quotient); a star's full leaf-permutation group S_n collapses
// to the cyclic rotation subgroup of order n this way once n! is too big.
const DefaultMaxGroupSize = 512

// CanonOptions restricts the group an OrbitCanonicalizer quotients by.
type CanonOptions struct {
	// OrientationPreserving keeps only automorphisms mapping left forks to
	// left forks. Required for programs that break the left/right coin
	// symmetry (a biased LR coin, GDP's tie-break toward the right fork).
	OrientationPreserving bool
	// Stabilize keeps only automorphisms mapping the given philosopher set
	// onto itself, so per-set labellings (a protected set) stay
	// orbit-invariant.
	Stabilize []PhilID
	// MaxGroupSize caps the enumerated group size; 0 means
	// DefaultMaxGroupSize.
	MaxGroupSize int
}

// AutPerm is one enumerated group element in the flat table form the
// simulator's key encoder consumes: for a destination index the Src tables
// give the source index whose state lands there, and the Img tables map
// state-internal references (a selected fork, a fork's holder) forward.
// SlotSrc does the same for the flat per-(fork, adjacent philosopher)
// adjacency slots (see Topology.SlotBase).
type AutPerm struct {
	PhilImg []int32
	ForkImg []int32
	PhilSrc []int32
	ForkSrc []int32
	SlotSrc []int32
}

// OrbitCanonicalizer holds one topology's enumerated (restricted)
// automorphism group, ready for lex-min canonical key encoding. It is
// immutable after construction and safe for concurrent use.
type OrbitCanonicalizer struct {
	topo  *Topology
	perms []AutPerm // identity first, then the rest in lexicographic order
}

// NewOrbitCanonicalizer enumerates the topology's automorphism group from
// its declared generators, applies the restrictions in opts, and returns
// the canonicalizer. The result is never nil: with no declared generators
// (or after restriction) the group is just the identity and Trivial()
// reports true.
func NewOrbitCanonicalizer(t *Topology, opts CanonOptions) (*OrbitCanonicalizer, error) {
	gens := t.Automorphisms()
	for i, a := range gens {
		if err := a.Validate(t); err != nil {
			return nil, fmt.Errorf("graph: generator %d of %q: %w", i, t.Name(), err)
		}
	}
	max := opts.MaxGroupSize
	if max <= 0 {
		max = DefaultMaxGroupSize
	}
	var group []Automorphism
	for k := len(gens); ; k-- {
		g, ok := closeGenerators(t, gens[:k], max)
		if ok {
			group = g
			break
		}
	}
	group = restrict(t, group, opts)
	sort.Slice(group, func(i, j int) bool { return lessAutomorphism(group[i], group[j]) })
	c := &OrbitCanonicalizer{topo: t, perms: make([]AutPerm, len(group))}
	for i, a := range group {
		c.perms[i] = buildPerm(t, a)
	}
	return c, nil
}

// closeGenerators returns the closure of gens under composition (always
// containing the identity), or ok=false once the closure exceeds max.
func closeGenerators(t *Topology, gens []Automorphism, max int) ([]Automorphism, bool) {
	id := identityAutomorphism(t)
	seen := map[string]bool{id.permKey(): true}
	group := []Automorphism{id}
	queue := []Automorphism{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, g := range gens {
			next := compose(g, cur)
			key := next.permKey()
			if seen[key] {
				continue
			}
			if len(group) >= max {
				return nil, false
			}
			seen[key] = true
			group = append(group, next)
			queue = append(queue, next)
		}
	}
	return group, true
}

// restrict filters the group to the subgroup satisfying opts. Both filters
// keep subgroups (orientation-preserving elements and setwise stabilizers
// are closed under composition and inverse), so the result is still a
// group.
func restrict(t *Topology, group []Automorphism, opts CanonOptions) []Automorphism {
	inSet := make([]bool, t.NumPhilosophers())
	stabilizing := false
	for _, p := range opts.Stabilize {
		if int(p) >= 0 && int(p) < len(inSet) {
			inSet[p] = true
			stabilizing = true
		}
	}
	out := group[:0]
	for _, a := range group {
		if opts.OrientationPreserving && !a.OrientationPreserving(t) {
			continue
		}
		if stabilizing && !stabilizes(a, inSet) {
			continue
		}
		out = append(out, a)
	}
	return out
}

// stabilizes reports whether a maps the philosopher set onto itself.
func stabilizes(a Automorphism, inSet []bool) bool {
	for p, in := range inSet {
		if in && !inSet[a.Phil[p]] {
			return false
		}
	}
	return true
}

// lessAutomorphism orders automorphisms lexicographically by (Phil, Fork);
// the identity sorts first.
func lessAutomorphism(a, b Automorphism) bool {
	for p := range a.Phil {
		if a.Phil[p] != b.Phil[p] {
			return a.Phil[p] < b.Phil[p]
		}
	}
	for f := range a.Fork {
		if a.Fork[f] != b.Fork[f] {
			return a.Fork[f] < b.Fork[f]
		}
	}
	return false
}

// buildPerm expands an automorphism into the flat tables of AutPerm.
func buildPerm(t *Topology, a Automorphism) AutPerm {
	n, k := t.NumPhilosophers(), t.NumForks()
	p := AutPerm{
		PhilImg: make([]int32, n),
		ForkImg: make([]int32, k),
		PhilSrc: make([]int32, n),
		ForkSrc: make([]int32, k),
		SlotSrc: make([]int32, t.TotalSlots()),
	}
	for i := 0; i < n; i++ {
		p.PhilImg[i] = int32(a.Phil[i])
		p.PhilSrc[a.Phil[i]] = int32(i)
	}
	for f := 0; f < k; f++ {
		p.ForkImg[f] = int32(a.Fork[f])
		p.ForkSrc[a.Fork[f]] = int32(f)
	}
	for g := 0; g < k; g++ {
		srcF := ForkID(p.ForkSrc[g])
		base := t.SlotBase(ForkID(g))
		for i, q := range t.PhilosophersAt(ForkID(g)) {
			srcP := PhilID(p.PhilSrc[q])
			p.SlotSrc[base+i] = int32(t.SlotBase(srcF) + t.Slot(srcF, srcP))
		}
	}
	return p
}

// Topology returns the topology the canonicalizer was built for.
func (c *OrbitCanonicalizer) Topology() *Topology { return c.topo }

// Size returns the number of enumerated group elements (including the
// identity).
func (c *OrbitCanonicalizer) Size() int { return len(c.perms) }

// Trivial reports whether the group is just the identity, in which case
// canonical keys equal plain keys.
func (c *OrbitCanonicalizer) Trivial() bool { return len(c.perms) <= 1 }

// Perms returns the enumerated group in flat table form, identity first.
// The returned slice and its tables must not be modified.
func (c *OrbitCanonicalizer) Perms() []AutPerm { return c.perms }

// ringAutomorphisms returns the dihedral generators of Ring(n): the
// rotation by one seat and the reflection through fork 0.
func ringAutomorphisms(n int) []Automorphism {
	rot := Automorphism{Phil: make([]PhilID, n), Fork: make([]ForkID, n)}
	refl := Automorphism{Phil: make([]PhilID, n), Fork: make([]ForkID, n)}
	for i := 0; i < n; i++ {
		rot.Phil[i] = PhilID((i + 1) % n)
		rot.Fork[i] = ForkID((i + 1) % n)
		refl.Phil[i] = PhilID(n - 1 - i)
		refl.Fork[i] = ForkID((n - i) % n)
	}
	return []Automorphism{rot, refl}
}

// starAutomorphisms returns generators of Star(n)'s leaf-permutation group
// S_n: the leaf n-cycle and, for n >= 3, the swap of the first two leaves
// (the closure cap collapses large stars to the rotation subgroup).
func starAutomorphisms(n int) []Automorphism {
	if n < 2 {
		return nil
	}
	rot := Automorphism{Phil: make([]PhilID, n), Fork: make([]ForkID, n+1)}
	rot.Fork[0] = 0
	for i := 0; i < n; i++ {
		rot.Phil[i] = PhilID((i + 1) % n)
		rot.Fork[i+1] = ForkID((i+1)%n + 1)
	}
	gens := []Automorphism{rot}
	if n >= 3 {
		swap := Automorphism{Phil: make([]PhilID, n), Fork: make([]ForkID, n+1)}
		for i := range swap.Phil {
			swap.Phil[i] = PhilID(i)
		}
		for f := range swap.Fork {
			swap.Fork[f] = ForkID(f)
		}
		swap.Phil[0], swap.Phil[1] = 1, 0
		swap.Fork[1], swap.Fork[2] = 2, 1
		gens = append(gens, swap)
	}
	return gens
}
