// Package graph models generalized dining-philosopher topologies.
//
// Following Herescu & Palamidessi (PODC 2001), a generalized dining
// philosopher system is an undirected multigraph whose nodes are the forks and
// whose arcs are the philosophers: each philosopher is adjacent to exactly two
// distinct forks (its "left" and "right" fork), a fork may be shared by any
// positive number of philosophers, and the numbers of philosophers and forks
// are unrelated. The classic Dijkstra table is the special case of a simple
// ring.
//
// The package provides construction, validation, structural queries (degrees,
// adjacency, cycles), the concrete topologies used in the paper (Figure 1, the
// Theorem 1 "ring plus chord" family, the Theorem 2 "theta" family) and
// generators for synthetic workloads.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// ForkID identifies a fork (a node of the topology). Fork IDs are dense
// integers in [0, NumForks).
type ForkID int

// PhilID identifies a philosopher (an arc of the topology). Philosopher IDs
// are dense integers in [0, NumPhilosophers).
type PhilID int

// NoFork is the sentinel "no fork" value.
const NoFork ForkID = -1

// NoPhil is the sentinel "no philosopher" value.
const NoPhil PhilID = -1

// Side selects one of a philosopher's two forks.
type Side int

const (
	// Left is the philosopher's left fork.
	Left Side = iota
	// Right is the philosopher's right fork.
	Right
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Topology is an immutable generalized dining-philosopher system: a multigraph
// with forks as nodes and philosophers as arcs. Construct one with a Builder
// or one of the predefined constructors; a constructed Topology is safe for
// concurrent read access.
type Topology struct {
	name     string
	numForks int
	// phils[p][Left], phils[p][Right] are the two forks of philosopher p.
	phils [][2]ForkID
	// at[f] lists the philosophers adjacent to fork f, in increasing order.
	at [][]PhilID
	// slotBase[f] is the offset of fork f's first adjacency slot in the flat
	// per-(fork, adjacent philosopher) arrays used by simulators; slotBase has
	// numForks+1 entries so slotBase[f+1]-slotBase[f] is Degree(f) and
	// slotBase[numForks] is the total slot count.
	slotBase []int
	// aut holds the declared automorphism generators of the topology (see
	// automorphism.go). Only the symmetric constructors (Ring, Star) declare
	// any; an empty set means the only known automorphism is the identity.
	aut []Automorphism
}

// Builder incrementally constructs a Topology. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	name     string
	numForks int
	phils    [][2]ForkID
	err      error
}

// NewBuilder returns a Builder for a topology with numForks forks and no
// philosophers yet.
func NewBuilder(name string, numForks int) *Builder {
	b := &Builder{name: name, numForks: numForks}
	if numForks < 2 {
		b.err = fmt.Errorf("graph: topology %q needs at least 2 forks, got %d", name, numForks)
	}
	return b
}

// AddPhilosopher adds a philosopher whose left fork is left and right fork is
// right, returning its PhilID. Errors (out-of-range or identical forks) are
// deferred until Build.
func (b *Builder) AddPhilosopher(left, right ForkID) PhilID {
	id := PhilID(len(b.phils))
	if b.err == nil {
		switch {
		case left == right:
			b.err = fmt.Errorf("graph: philosopher %d in %q has identical left and right fork %d", id, b.name, left)
		case left < 0 || int(left) >= b.numForks:
			b.err = fmt.Errorf("graph: philosopher %d in %q has left fork %d out of range [0,%d)", id, b.name, left, b.numForks)
		case right < 0 || int(right) >= b.numForks:
			b.err = fmt.Errorf("graph: philosopher %d in %q has right fork %d out of range [0,%d)", id, b.name, right, b.numForks)
		}
	}
	b.phils = append(b.phils, [2]ForkID{left, right})
	return id
}

// Build validates the accumulated system and returns the immutable Topology.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.phils) == 0 {
		return nil, fmt.Errorf("graph: topology %q has no philosophers", b.name)
	}
	t := &Topology{
		name:     b.name,
		numForks: b.numForks,
		phils:    make([][2]ForkID, len(b.phils)),
		at:       make([][]PhilID, b.numForks),
	}
	copy(t.phils, b.phils)
	for p, fks := range t.phils {
		t.at[fks[Left]] = append(t.at[fks[Left]], PhilID(p))
		t.at[fks[Right]] = append(t.at[fks[Right]], PhilID(p))
	}
	for f := range t.at {
		sort.Slice(t.at[f], func(i, j int) bool { return t.at[f][i] < t.at[f][j] })
	}
	t.slotBase = make([]int, t.numForks+1)
	for f := 0; f < t.numForks; f++ {
		t.slotBase[f+1] = t.slotBase[f] + len(t.at[f])
	}
	return t, nil
}

// MustBuild is like Build but panics on error. Intended for the predefined
// constructors and tests, where a failure is a programming bug.
func (b *Builder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the topology's descriptive name.
func (t *Topology) Name() string { return t.name }

// NumForks returns the number of forks (nodes).
func (t *Topology) NumForks() int { return t.numForks }

// NumPhilosophers returns the number of philosophers (arcs).
func (t *Topology) NumPhilosophers() int { return len(t.phils) }

// Left returns philosopher p's left fork.
func (t *Topology) Left(p PhilID) ForkID { return t.phils[p][Left] }

// Right returns philosopher p's right fork.
func (t *Topology) Right(p PhilID) ForkID { return t.phils[p][Right] }

// Forks returns both forks of philosopher p as a two-element array
// (index by Side).
func (t *Topology) Forks(p PhilID) [2]ForkID { return t.phils[p] }

// OtherFork returns the fork of philosopher p that is not f. It panics if f is
// not adjacent to p.
func (t *Topology) OtherFork(p PhilID, f ForkID) ForkID {
	switch f {
	case t.phils[p][Left]:
		return t.phils[p][Right]
	case t.phils[p][Right]:
		return t.phils[p][Left]
	}
	panic(fmt.Sprintf("graph: fork %d is not adjacent to philosopher %d", f, p))
}

// PhilosophersAt returns the philosophers adjacent to fork f in increasing
// order. The returned slice must not be modified.
func (t *Topology) PhilosophersAt(f ForkID) []PhilID { return t.at[f] }

// Degree returns the number of philosophers sharing fork f.
func (t *Topology) Degree(f ForkID) int { return len(t.at[f]) }

// MaxDegree returns the maximum fork degree in the topology.
func (t *Topology) MaxDegree() int {
	max := 0
	for f := range t.at {
		if d := len(t.at[f]); d > max {
			max = d
		}
	}
	return max
}

// Slot returns the index of philosopher p within PhilosophersAt(f), used by
// simulators to store per-(fork, adjacent philosopher) bookkeeping in dense
// arrays. It panics if p is not adjacent to f.
func (t *Topology) Slot(f ForkID, p PhilID) int {
	for i, q := range t.at[f] {
		if q == p {
			return i
		}
	}
	panic(fmt.Sprintf("graph: philosopher %d is not adjacent to fork %d", p, f))
}

// SlotBase returns the offset of fork f's first adjacency slot in a flat
// array that concatenates the slots of every fork in fork-ID order: the
// per-(fork, adjacent philosopher) datum of philosopher p on fork f lives at
// index SlotBase(f)+Slot(f, p). Simulators use it to store all request-list
// and guest-book state in two shared backing arrays instead of one pair of
// small slices per fork.
func (t *Topology) SlotBase(f ForkID) int { return t.slotBase[f] }

// TotalSlots returns the total number of (fork, adjacent philosopher)
// adjacency slots, i.e. the sum of all fork degrees (always twice the number
// of philosophers).
func (t *Topology) TotalSlots() int { return t.slotBase[t.numForks] }

// Validate re-checks the structural invariants of Definition 1: at least two
// forks, at least one philosopher, every philosopher adjacent to two distinct
// in-range forks. Builders already enforce this; Validate exists so that
// topologies decoded from external input can be re-checked.
func (t *Topology) Validate() error {
	if t.numForks < 2 {
		return fmt.Errorf("graph: topology %q has %d forks, need at least 2", t.name, t.numForks)
	}
	if len(t.phils) == 0 {
		return fmt.Errorf("graph: topology %q has no philosophers", t.name)
	}
	for p, fks := range t.phils {
		if fks[Left] == fks[Right] {
			return fmt.Errorf("graph: philosopher %d has identical forks", p)
		}
		for _, f := range fks {
			if f < 0 || int(f) >= t.numForks {
				return fmt.Errorf("graph: philosopher %d references fork %d out of range", p, f)
			}
		}
	}
	return nil
}

// String returns a compact human-readable description.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d philosophers, %d forks", t.name, len(t.phils), t.numForks)
	return b.String()
}
