package sim

import "repro/internal/graph"

// SetPendingForTest writes a raw pending-grant entry (or clears it) without
// GrantInFlight's free-fork precondition. The canonicalizer fuzzer mutates
// worlds without maintaining protocol invariants — canonicalization is a pure
// key transformation — so it needs direct slot access; writing a zero entry
// still materializes the array, exercising the nil ≡ all-zero key convention.
func (w *World) SetPendingForTest(f graph.ForkID, p graph.PhilID, delay uint8, inFlight bool) {
	w.EnsurePending()
	var v uint8
	if inFlight {
		v = pendingInFlight | delay&pendingDelayMask
	}
	w.pending.slots[w.slotIndex(f, p)] = v
}

// PendingAtForTest reads the pending-grant entry of fork f's adjacency slot
// of philosopher p: its remaining-delay counter and whether a grant is in
// flight there. Unlike PendingGrant it addresses a single slot, so test
// harnesses can transport every entry of an arbitrary (invariant-free) world.
func (w *World) PendingAtForTest(f graph.ForkID, p graph.PhilID) (uint8, bool) {
	if w.pending == nil {
		return 0, false
	}
	v := w.pending.slots[w.slotIndex(f, p)]
	return v & pendingDelayMask, v&pendingInFlight != 0
}

// ForkReqForTest returns the request-list entries of fork f, indexed by
// adjacency slot (graph.Topology.Slot). The returned slice aliases the
// world's state.
func (w *World) ForkReqForTest(f graph.ForkID) []bool {
	base := w.Topo.SlotBase(f)
	return w.req[base : base+w.Topo.Degree(f)]
}
