package graph

import (
	"fmt"

	"repro/internal/prng"
)

// Ring returns the classic dining-philosopher topology: n philosophers and n
// forks arranged alternately around a table. Philosopher i's left fork is i
// and right fork is (i+1) mod n. n must be at least 2 (n = 2 is the smallest
// ring, with two philosophers sharing both forks via parallel arcs).
func Ring(n int) *Topology {
	if n < 2 {
		panic(fmt.Sprintf("graph: Ring needs n >= 2, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("ring-%d", n), n)
	for i := 0; i < n; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%n))
	}
	return declareAutomorphisms(b.MustBuild(), ringAutomorphisms(n)...)
}

// DoubledPolygon returns a topology with k forks arranged in a cycle and two
// parallel philosophers on every cycle edge, i.e. 2k philosophers sharing k
// forks. DoubledPolygon(3) is the leftmost example of Figure 1 in the paper
// (6 philosophers, 3 forks).
func DoubledPolygon(k int) *Topology {
	if k < 2 {
		panic(fmt.Sprintf("graph: DoubledPolygon needs k >= 2, got %d", k))
	}
	b := NewBuilder(fmt.Sprintf("doubled-polygon-%d", k), k)
	for i := 0; i < k; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%k))
	}
	for i := 0; i < k; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%k))
	}
	return b.MustBuild()
}

// RingWithChord returns a ring of k forks (and k philosophers) plus one
// additional philosopher ("the chord") between fork 0 and fork chordTo. This
// is the minimal family covered by Theorem 1: the ring H has a fork (fork 0)
// with three incident arcs. chordTo must be a valid fork distinct from 0; pass
// k/2 for a diameter chord.
func RingWithChord(k int, chordTo int) *Topology {
	if k < 3 {
		panic(fmt.Sprintf("graph: RingWithChord needs k >= 3, got %d", k))
	}
	if chordTo <= 0 || chordTo >= k {
		panic(fmt.Sprintf("graph: RingWithChord chordTo %d out of range (0,%d)", chordTo, k))
	}
	b := NewBuilder(fmt.Sprintf("ring-%d-chord-%d", k, chordTo), k)
	for i := 0; i < k; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%k))
	}
	b.AddPhilosopher(ForkID(0), ForkID(chordTo))
	return b.MustBuild()
}

// Theorem1Minimal returns the smallest Theorem 1 topology used by the model
// checker: a triangle ring (3 forks, 3 philosophers) plus a fourth philosopher
// sharing forks 0 and 1 — a ring in which fork 0 has three incident arcs.
func Theorem1Minimal() *Topology {
	b := NewBuilder("theorem1-minimal", 3)
	b.AddPhilosopher(0, 1)
	b.AddPhilosopher(1, 2)
	b.AddPhilosopher(2, 0)
	b.AddPhilosopher(0, 1)
	return b.MustBuild()
}

// RingWithPendant returns a ring of k forks and k philosophers plus one extra
// philosopher between fork 0 and a new private fork k. Fork 0 then has three
// incident arcs (the Theorem 1 structure), but — unlike RingWithChord — the
// graph contains only the single ring cycle, so the Theorem 2 structure is
// absent: this is the family separating LR1 (defeated) from LR2 (not
// defeated by the paper's construction).
func RingWithPendant(k int) *Topology {
	if k < 3 {
		panic(fmt.Sprintf("graph: RingWithPendant needs k >= 3, got %d", k))
	}
	b := NewBuilder(fmt.Sprintf("ring-%d-pendant", k), k+1)
	for i := 0; i < k; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%k))
	}
	b.AddPhilosopher(0, ForkID(k))
	return b.MustBuild()
}

// Theta returns the "theta graph" used for Theorem 2: two hub forks joined by
// three internally disjoint paths whose lengths (numbers of arcs) are given.
// Each length must be at least 1; Theta(1, 1, 1) is the minimal instance with
// 2 forks shared by 3 philosophers.
func Theta(lengths ...int) *Topology {
	if len(lengths) < 3 {
		panic("graph: Theta needs at least 3 path lengths")
	}
	totalInternal := 0
	for _, l := range lengths {
		if l < 1 {
			panic(fmt.Sprintf("graph: Theta path length %d < 1", l))
		}
		totalInternal += l - 1
	}
	numForks := 2 + totalInternal
	b := NewBuilder(fmt.Sprintf("theta-%v", lengths), numForks)
	const hubA, hubB = ForkID(0), ForkID(1)
	next := 2
	for _, l := range lengths {
		prev := hubA
		for i := 0; i < l-1; i++ {
			mid := ForkID(next)
			next++
			b.AddPhilosopher(prev, mid)
			prev = mid
		}
		b.AddPhilosopher(prev, hubB)
	}
	return b.MustBuild()
}

// Theorem2Minimal returns the smallest Theorem 2 topology: two forks joined by
// three parallel philosophers (Theta(1,1,1)).
func Theorem2Minimal() *Topology { return Theta(1, 1, 1) }

// Star returns a topology with one hub fork shared by n philosophers, each of
// which also has a private leaf fork. It has n philosophers and n+1 forks, no
// cycles, and maximum fork degree n.
func Star(n int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("graph: Star needs n >= 1, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("star-%d", n), n+1)
	hub := ForkID(0)
	for i := 0; i < n; i++ {
		b.AddPhilosopher(hub, ForkID(i+1))
	}
	return declareAutomorphisms(b.MustBuild(), starAutomorphisms(n)...)
}

// Path returns an open chain of n philosophers over n+1 forks: philosopher i
// uses forks i and i+1. It is acyclic, so even LR1 makes progress on it.
func Path(n int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("graph: Path needs n >= 1, got %d", n))
	}
	b := NewBuilder(fmt.Sprintf("path-%d", n), n+1)
	for i := 0; i < n; i++ {
		b.AddPhilosopher(ForkID(i), ForkID(i+1))
	}
	return b.MustBuild()
}

// CompleteForkGraph returns a topology with k forks and one philosopher for
// every unordered pair of forks — the densest simple system, k(k−1)/2
// philosophers.
func CompleteForkGraph(k int) *Topology {
	if k < 2 {
		panic(fmt.Sprintf("graph: CompleteForkGraph needs k >= 2, got %d", k))
	}
	b := NewBuilder(fmt.Sprintf("complete-%d", k), k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b.AddPhilosopher(ForkID(i), ForkID(j))
		}
	}
	return b.MustBuild()
}

// Grid returns a topology whose forks form an r×c grid and whose philosophers
// are the grid edges (horizontal and vertical neighbours). It is a planar
// graph with many overlapping cycles, used in scalability benchmarks.
func Grid(rows, cols int) *Topology {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic(fmt.Sprintf("graph: Grid needs at least 1x2 forks, got %dx%d", rows, cols))
	}
	b := NewBuilder(fmt.Sprintf("grid-%dx%d", rows, cols), rows*cols)
	id := func(r, c int) ForkID { return ForkID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddPhilosopher(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddPhilosopher(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// RandomMultigraph returns a connected random multigraph with numForks forks
// and numPhils philosophers, generated deterministically from seed. The first
// numForks−1 philosophers form a random spanning tree (guaranteeing
// connectivity when numPhils >= numForks−1); the rest join uniformly random
// distinct fork pairs, possibly in parallel with existing philosophers.
func RandomMultigraph(numPhils, numForks int, seed uint64) *Topology {
	if numForks < 2 {
		panic(fmt.Sprintf("graph: RandomMultigraph needs at least 2 forks, got %d", numForks))
	}
	if numPhils < 1 {
		panic(fmt.Sprintf("graph: RandomMultigraph needs at least 1 philosopher, got %d", numPhils))
	}
	rng := prng.New(seed)
	b := NewBuilder(fmt.Sprintf("random-p%d-f%d-s%d", numPhils, numForks, seed), numForks)
	added := 0
	// Random spanning tree via random attachment order.
	order := rng.Perm(numForks)
	for i := 1; i < numForks && added < numPhils; i++ {
		parent := order[rng.Intn(i)]
		b.AddPhilosopher(ForkID(order[i]), ForkID(parent))
		added++
	}
	for ; added < numPhils; added++ {
		u := rng.Intn(numForks)
		v := rng.Intn(numForks - 1)
		if v >= u {
			v++
		}
		b.AddPhilosopher(ForkID(u), ForkID(v))
	}
	return b.MustBuild()
}

// Figure1A returns the leftmost example of Figure 1: 6 philosophers sharing 3
// forks — a triangle of forks with two parallel philosophers per edge.
func Figure1A() *Topology {
	t := DoubledPolygon(3)
	return rename(t, "figure1a-6phil-3fork")
}

// Figure1B returns the second example of Figure 1: 12 philosophers sharing 6
// forks — a hexagon of forks with two parallel philosophers per edge.
func Figure1B() *Topology {
	t := DoubledPolygon(6)
	return rename(t, "figure1b-12phil-6fork")
}

// Figure1C returns a reconstruction of the third example of Figure 1:
// 16 philosophers sharing 12 forks. The published figure is a drawing without
// a formal definition; this reconstruction keeps the stated philosopher and
// fork counts and the structural features relied on in the text (a ring
// containing forks of degree >= 3): a 12-fork ring with 12 philosophers plus 4
// chords at alternating positions.
func Figure1C() *Topology {
	b := NewBuilder("figure1c-16phil-12fork", 12)
	for i := 0; i < 12; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%12))
	}
	// Four chords between opposite-ish forks.
	b.AddPhilosopher(0, 6)
	b.AddPhilosopher(3, 9)
	b.AddPhilosopher(1, 7)
	b.AddPhilosopher(4, 10)
	return b.MustBuild()
}

// Figure1D returns a reconstruction of the rightmost example of Figure 1:
// 10 philosophers sharing 9 forks. As with Figure1C the exact drawing is not
// formally specified; the reconstruction is a 9-fork ring of 9 philosophers
// plus one extra philosopher sharing forks 0 and 3, giving one fork of degree
// three (the Theorem 1 structure).
func Figure1D() *Topology {
	b := NewBuilder("figure1d-10phil-9fork", 9)
	for i := 0; i < 9; i++ {
		b.AddPhilosopher(ForkID(i), ForkID((i+1)%9))
	}
	b.AddPhilosopher(0, 3)
	return b.MustBuild()
}

// Figure1 returns all four Figure 1 topologies in paper order.
func Figure1() []*Topology {
	return []*Topology{Figure1A(), Figure1B(), Figure1C(), Figure1D()}
}

// rename returns a copy of t with a different name (topologies are otherwise
// immutable).
func rename(t *Topology, name string) *Topology {
	clone := *t
	clone.name = name
	return &clone
}
