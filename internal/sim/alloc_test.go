package sim

import (
	"testing"

	"repro/internal/graph"
)

// The tests in this file pin the steady-state allocation budgets of the
// model-checking hot paths: encoding a state key into a reused buffer and
// protocol-cloning into a reused world must not allocate at all, and a fresh
// protocol clone must stay within a handful of bulk copies.

// dirtyWorld returns a world with every kind of protocol state populated, so
// the key encoder exercises all of its branches.
func dirtyWorld(t *testing.T) *World {
	t.Helper()
	topo := graph.Theorem2Minimal() // theta: a fork with three adjacent slots
	w := NewWorld(topo)
	w.BecomeHungry(0)
	w.Commit(0, topo.Left(0))
	w.TryTake(0, topo.Left(0))
	w.MarkHoldingFirst(0)
	w.Request(1, topo.Left(1))
	w.SetNR(0, topo.Left(0), 3)
	w.Step = 5
	w.SignGuestBook(0, topo.Left(0))
	w.Step = 9
	w.SignGuestBook(2, topo.Left(2))
	w.SetGlobal(1, 42)
	return w
}

func TestAppendKeyDoesNotAllocate(t *testing.T) {
	w := dirtyWorld(t)
	buf := w.AppendKey(nil) // warm the buffer to its steady-state capacity
	if len(buf) == 0 {
		t.Fatal("empty key")
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = w.AppendKey(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendKey with a warm buffer allocates %.1f times per call, want 0", allocs)
	}
}

func TestCloneProtocolIntoDoesNotAllocate(t *testing.T) {
	w := dirtyWorld(t)
	dst := w.CloneProtocol()
	allocs := testing.AllocsPerRun(200, func() {
		dst = w.CloneProtocolInto(dst)
	})
	if allocs != 0 {
		t.Errorf("CloneProtocolInto with a reusable destination allocates %.1f times per call, want 0", allocs)
	}
}

func TestCloneProtocolAllocationBudget(t *testing.T) {
	w := dirtyWorld(t)
	// A fresh protocol clone is one World plus one backing array per protocol
	// slice (Phils, Forks, req, used, Globals) — no per-fork allocations.
	const budget = 6
	allocs := testing.AllocsPerRun(100, func() {
		_ = w.CloneProtocol()
	})
	if allocs > budget {
		t.Errorf("CloneProtocol allocates %.1f times per call, budget %d", allocs, budget)
	}
}

func TestCloneProtocolMatchesCloneKey(t *testing.T) {
	w := dirtyWorld(t)
	if got, want := string(w.CloneProtocol().AppendKey(nil)), string(w.Clone().AppendKey(nil)); got != want {
		t.Error("CloneProtocol and Clone disagree on the protocol state key")
	}
}

func TestCloneProtocolIntoIsIndependent(t *testing.T) {
	w := dirtyWorld(t)
	c := w.CloneProtocolInto(w.CloneProtocol())
	c.SetNR(0, 0, 7)
	c.Request(2, c.Topo.Left(2))
	if w.NR(0) == 7 {
		t.Error("mutating the protocol clone changed the original's nr")
	}
	if w.HasRequest(2, w.Topo.Left(2)) {
		t.Error("mutating the protocol clone changed the original's request list")
	}
}
