package graph

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestTopologyRegistryNamesSortedAndBuildable(t *testing.T) {
	t.Parallel()
	names := TopologyNames()
	if len(names) < 10 {
		t.Fatalf("expected the builder topologies registered, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("TopologyNames not sorted: %v", names)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "test-") {
			continue // registered by other tests
		}
		topo, err := NewTopology(name, 0)
		if err != nil {
			t.Errorf("NewTopology(%q, 0): %v", name, err)
			continue
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("default %q topology invalid: %v", name, err)
		}
	}
}

// TestNewTopologySmallSizes pins that NewTopology never panics on a small
// size: every registered topology at n = 1, 2 and 3 is either built and
// valid or an error naming the topology and the size. A negative size is
// always such an error, never the default size.
func TestNewTopologySmallSizes(t *testing.T) {
	t.Parallel()
	for _, name := range TopologyNames() {
		if strings.HasPrefix(name, "test-") {
			continue // registered by other tests
		}
		for _, n := range []int{-1, 1, 2, 3} {
			topo, err := NewTopology(name, n)
			if n < 0 && err == nil {
				t.Errorf("NewTopology(%q, %d) built %s; a negative size must be refused", name, n, topo.Name())
				continue
			}
			if err != nil {
				if want := fmt.Sprintf("%q cannot be built with n=%d", name, n); !strings.Contains(err.Error(), want) {
					t.Errorf("NewTopology(%q, %d) error = %q, want it to contain %s", name, n, err, want)
				}
				continue
			}
			if err := topo.Validate(); err != nil {
				t.Errorf("NewTopology(%q, %d) built an invalid topology: %v", name, n, err)
			}
		}
	}
	if _, err := NewTopology("ring", 1); err == nil {
		t.Error("NewTopology built a ring of one philosopher")
	}
}

func TestTopologyRegistryUnknownName(t *testing.T) {
	t.Parallel()
	_, err := NewTopology("moebius", 3)
	if err == nil {
		t.Fatal("NewTopology accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, "registered:") || !strings.Contains(msg, "ring") || strings.Contains(msg, "\n") {
		t.Errorf("want a one-line error listing the registered options, got: %v", err)
	}
}

func TestTopologyRegistryDuplicatePanics(t *testing.T) {
	t.Parallel()
	RegisterTopology("test-graph-dup", func(int) *Topology { return Ring(3) })
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterTopology did not panic")
		}
	}()
	RegisterTopology("test-graph-dup", func(int) *Topology { return Ring(3) })
}

// TestTopologySizeRulesMatchBuilders pins every builtin size rule against
// the topology it describes, so NewTopology's pre-build bound check counts
// what the constructor would build.
func TestTopologySizeRulesMatchBuilders(t *testing.T) {
	t.Parallel()
	for name, size := range builtinSizes {
		for n := 1; n <= 8; n++ {
			topo, err := NewTopology(name, n)
			if err != nil {
				continue // below the builder's minimum size
			}
			if phils, forks := size(n); phils != topo.NumPhilosophers() || forks != topo.NumForks() {
				t.Errorf("%s at n=%d: size rule says %d philosophers and %d forks, the builder made %d and %d",
					name, n, phils, forks, topo.NumPhilosophers(), topo.NumForks())
			}
		}
	}
}

// TestNewTopologyRejectsOversizedSizes pins the MaxTopologySize bound: every
// sized builtin at the smallest n over the bound is refused with an error
// naming the topology, n and the bound, before anything is built (a small
// allocation budget, where building would take megabytes), while n-1 is
// still within the bound. It runs alone so the allocation count is its own.
func TestNewTopologyRejectsOversizedSizes(t *testing.T) {
	smallestOver := map[string]int{
		"ring":            65_537,
		"doubled-polygon": 32_769,
		"ring-chord":      65_536,
		"ring-pendant":    65_536,
		"theta":           65_535,
		"star":            65_536,
		"path":            65_536,
		"grid":            182,
		"complete":        363,
	}
	if len(smallestOver) != len(builtinSizes) {
		t.Errorf("the table covers %d sized topologies, %d are registered", len(smallestOver), len(builtinSizes))
	}
	for name, n := range smallestOver {
		size := builtinSizes[name]
		if size == nil {
			t.Errorf("%s: no size rule registered", name)
			continue
		}
		if phils, forks := size(n - 1); phils > MaxTopologySize || forks > MaxTopologySize {
			t.Errorf("%s: n=%d already exceeds the bound (%d philosophers, %d forks)", name, n-1, phils, forks)
		}
		for _, size := range []int{n, 1 << 40} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewTopology(name, size)
			runtime.ReadMemStats(&after)
			want := fmt.Sprintf("topology %q with n=%d would exceed %d philosophers or forks", name, size, MaxTopologySize)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("NewTopology(%q, %d) error = %v, want it to contain %s", name, size, err, want)
			}
			if b := after.TotalAlloc - before.TotalAlloc; b > 16<<10 {
				t.Errorf("NewTopology(%q, %d) allocated %d bytes before refusing; it must refuse before building", name, size, b)
			}
		}
	}
}
