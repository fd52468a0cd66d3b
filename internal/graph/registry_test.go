package graph

import (
	"fmt"
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
// valid or an error naming the topology and the size.
func TestNewTopologySmallSizes(t *testing.T) {
	t.Parallel()
	for _, name := range TopologyNames() {
		if strings.HasPrefix(name, "test-") {
			continue // registered by other tests
		}
		for n := 1; n <= 3; n++ {
			topo, err := NewTopology(name, n)
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
