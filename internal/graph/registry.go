package graph

import (
	"fmt"
	"strings"

	"repro/internal/registry"
)

// TopologyCtor builds a topology from a size parameter n >= 0. Constructors
// must substitute a sensible default when n is 0 (fixed topologies such as
// the Figure 1 reconstructions ignore n entirely); NewTopology refuses a
// negative n before calling them.
type TopologyCtor func(n int) *Topology

// The topology registry maps names to constructors. The builders of this
// package self-register in init below; external packages (custom topologies,
// experiments) add their own through RegisterTopology, typically from the
// public facade's RegisterTopology.
var topoReg = registry.New[TopologyCtor]("graph", "topology")

// RegisterTopology registers a named topology constructor. It panics if the
// name is empty, the constructor is nil, or the name is already registered:
// registration happens at init time, where a collision is a programming bug
// that must not be silently resolved by load order.
func RegisterTopology(name string, ctor TopologyCtor) { topoReg.Register(name, ctor) }

// MaxTopologySize bounds the philosophers and the forks of a sized builtin
// topology built by NewTopology. The largest instance anywhere in the
// repository is ring-64; the bound keeps a tiny CLI flag or HTTP request
// from allocating without limit before any admission check runs (complete
// and grid grow quadratically in n).
const MaxTopologySize = 1 << 16

// builtinSizes gives, for each sized builtin topology, its philosopher and
// fork counts at size n > 0, so NewTopology refuses an oversized size
// before building anything.
var builtinSizes = map[string]func(n int) (phils, forks int){}

// NewTopology builds the named registered topology with size parameter n
// (n = 0 selects the constructor's default size; fixed topologies ignore n).
// A negative size, a size the constructor cannot build (Ring(1) panics) or,
// for a sized builtin, a size whose topology would exceed MaxTopologySize
// philosophers or forks is an error naming the topology and the size, so bad
// input at the CLI and HTTP boundaries fails with a message instead of a
// crash, a silently substituted default or an unbounded allocation.
func NewTopology(name string, n int) (topo *Topology, err error) {
	ctor, err := topoReg.Lookup(name)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: topology %q cannot be built with n=%d: the size must not be negative", name, n)
	}
	if size := builtinSizes[name]; size != nil && n > 0 {
		// Every sized builtin has at least n philosophers or n forks and
		// grows with n, so clamping n keeps the count exact up to the bound
		// and free of overflow beyond it.
		if phils, forks := size(min(n, MaxTopologySize+1)); phils > MaxTopologySize || forks > MaxTopologySize {
			return nil, fmt.Errorf("graph: topology %q with n=%d would exceed %d philosophers or forks", name, n, MaxTopologySize)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			msg := strings.TrimPrefix(fmt.Sprint(r), "graph: ")
			topo, err = nil, fmt.Errorf("graph: topology %q cannot be built with n=%d: %s", name, n, msg)
		}
	}()
	return ctor(n), nil
}

// TopologyNames returns every registered topology name in sorted order.
func TopologyNames() []string { return topoReg.Names() }

// sized substitutes fallback when the caller passed no size.
func sized(n, fallback int) int {
	if n <= 0 {
		return fallback
	}
	return n
}

// registerSized registers a builtin sized topology together with its
// philosopher and fork counts at size n.
func registerSized(name string, ctor TopologyCtor, size func(n int) (phils, forks int)) {
	RegisterTopology(name, ctor)
	builtinSizes[name] = size
}

func init() {
	registerSized("ring", func(n int) *Topology { return Ring(sized(n, 5)) },
		func(n int) (int, int) { return n, n })
	registerSized("doubled-polygon", func(n int) *Topology { return DoubledPolygon(sized(n, 3)) },
		func(k int) (int, int) { return 2 * k, k })
	registerSized("ring-chord", func(n int) *Topology { k := sized(n, 6); return RingWithChord(k, k/2) },
		func(k int) (int, int) { return k + 1, k })
	registerSized("ring-pendant", func(n int) *Topology { return RingWithPendant(sized(n, 5)) },
		func(k int) (int, int) { return k + 1, k + 1 })
	registerSized("theta", func(n int) *Topology { return Theta(1, 1, sized(n, 1)) },
		func(n int) (int, int) { return n + 2, n + 1 })
	registerSized("star", func(n int) *Topology { return Star(sized(n, 5)) },
		func(n int) (int, int) { return n, n + 1 })
	registerSized("path", func(n int) *Topology { return Path(sized(n, 5)) },
		func(n int) (int, int) { return n, n + 1 })
	registerSized("grid", func(n int) *Topology { g := sized(n, 3); return Grid(g, g) },
		func(g int) (int, int) { return 2 * g * (g - 1), g * g })
	registerSized("complete", func(n int) *Topology { return CompleteForkGraph(sized(n, 4)) },
		func(k int) (int, int) { return k * (k - 1) / 2, k })
	RegisterTopology("theorem1-minimal", func(int) *Topology { return Theorem1Minimal() })
	RegisterTopology("theorem2-minimal", func(int) *Topology { return Theorem2Minimal() })
	RegisterTopology("figure1a", func(int) *Topology { return Figure1A() })
	RegisterTopology("figure1b", func(int) *Topology { return Figure1B() })
	RegisterTopology("figure1c", func(int) *Topology { return Figure1C() })
	RegisterTopology("figure1d", func(int) *Topology { return Figure1D() })
}
