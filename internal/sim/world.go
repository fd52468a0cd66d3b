// Package sim implements the execution model of the paper: a probabilistic
// automaton in the sense of Segala and Lynch, specialised to generalized
// dining-philosopher systems.
//
// A World holds the complete instantaneous state of a system: one PhilState
// per philosopher and one ForkState per fork (plus optional shared "globals"
// used only by the non-distributed baseline algorithms). Philosopher programs
// (package algo) describe, for the currently scheduled philosopher, the set of
// possible next atomic actions as Outcomes with probabilities; an adversary
// (a Scheduler) resolves the nondeterministic choice of which philosopher
// moves, and a PRNG (or, in the model checker, exhaustive branching) resolves
// the probabilistic choice among outcomes.
//
// # Protocol state versus run metrics
//
// A World separates two kinds of state. Protocol state is everything a
// philosopher program can observe: program counters, phases, fork selections
// and holdings, auxiliary registers, fork holders, nr values, request lists,
// guest books and the shared globals. Run metrics (meal counters, first-eat
// steps, waiting times, scheduling counts) are bookkeeping for experiment
// reports; they are excluded from Key and from clone equality. Clone copies
// both; CloneProtocol copies only the protocol state and leaves the metric
// slices nil, which the mutation helpers tolerate — this is what the model
// checker uses, since exploring a state space has no use for metrics. The
// per-(fork, philosopher) request-list and guest-book entries of all forks
// live in two flat backing arrays indexed by graph.Topology.SlotBase, so
// cloning a world is a handful of bulk copies instead of two small
// allocations per fork.
//
// # Key encoding
//
// Worlds are plain values: cloning copies all state, and AppendKey appends a
// compact binary encoding of the protocol-relevant state to a caller-held
// scratch buffer so that the model checker can identify revisited states
// without allocating. The encoding is, in order:
//
//   - per philosopher: PC byte; one flags byte packing the Phase (2 bits),
//     HasFirst, HasSecond and Crashed; uvarint(First+1); zigzag varints of
//     Aux[0] and Aux[1];
//   - per fork: uvarint(Holder+1); uvarint(NR); the request bits packed 8 per
//     byte; one byte per adjacency slot holding the guest-book rank+1 (0 for
//     "never signed"), where ranks number the distinct signing times of that
//     fork in increasing order — only the relative order of guest-book
//     entries is observable, so rank normalization keeps the state space
//     finite;
//   - uvarint(len(Globals)) followed by zigzag varints of the globals;
//   - for each adjacency slot carrying an in-flight fork grant (the
//     delayed-grants fault model, ascending slot index): uvarint(slot+1)
//     followed by the raw pending byte (in-flight bit plus remaining-delay
//     counter). Worlds without pending grants — every fault-free world, and
//     every fault-injected world whose grants have all been delivered — emit
//     no suffix at all, so the encoding is byte-identical to the pre-delay
//     format on the entire nil-fault state space.
//
// Given a fixed topology every field has a fixed position (the pending
// suffix is self-delimiting: it is a sequence of non-zero uvarint/byte pairs
// running to the end of the key), so the encoding is injective on observable
// protocol states. Key returns the same encoding as a string for
// convenience; hot paths should use AppendKey with a reused buffer.
package sim

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Phase is the coarse activity of a philosopher, as used in the paper's
// progress and lockout statements: thinking, in the trying section (hungry),
// or eating.
type Phase uint8

const (
	// Thinking means the philosopher is outside the trying section.
	Thinking Phase = iota
	// Hungry means the philosopher is in the trying section (steps 2..5 of
	// the algorithms): it wants to eat and is competing for forks.
	Hungry
	// Eating means the philosopher holds both forks and is eating.
	Eating
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Thinking:
		return "thinking"
	case Hungry:
		return "hungry"
	case Eating:
		return "eating"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// PhilState is the local state of one philosopher. All fields are values so
// that copying a PhilState copies the state.
type PhilState struct {
	// PC is the algorithm-specific program counter (line number of the
	// pseudo-code being executed next).
	PC uint8
	// Phase is the coarse phase; kept in sync by the World helpers.
	Phase Phase
	// First is the fork currently selected as "fork" in the pseudo-code
	// (the first fork to acquire), or graph.NoFork when no selection is
	// active.
	First graph.ForkID
	// HasFirst reports whether the philosopher currently holds First.
	HasFirst bool
	// HasSecond reports whether the philosopher currently holds the fork
	// opposite to First.
	HasSecond bool
	// Crashed reports whether the philosopher is currently crashed (removed
	// from the protocol by a fault model, holding nothing). It is protocol
	// state — neighbours observe a crashed philosopher exactly as an idle
	// thinking one, but the fault layer branches on it — and is included in
	// Key. Always false outside fault-injected runs, so the nil-fault key
	// encoding is unchanged.
	Crashed bool
	// Aux is algorithm-specific scratch state (for example the ticket held by
	// a philosopher in the ticket-box baseline). Included in Key.
	Aux [2]int64
}

// ForkState is the per-fork protocol state. The request-list and guest-book
// entries of the fork live in the World's flat req/used arrays at the fork's
// slot offsets (see graph.Topology.SlotBase); World.HasRequest reads a
// request-list entry and World.ForkUsed views the guest book.
type ForkState struct {
	// Holder is the philosopher currently holding the fork, or graph.NoPhil.
	Holder graph.PhilID
	// NR is the fork's number field used by GDP1/GDP2 (0 initially).
	NR int
}

// Pending-grant slot encoding (delayed-grants fault model). Each adjacency
// slot holds one byte: the in-flight bit plus a remaining-delay counter. A
// zero byte means no grant is in flight on the slot.
const (
	// pendingInFlight marks a slot carrying an in-flight grant. It is set for
	// the whole flight, so a slot byte is non-zero exactly while a grant is in
	// flight (the key encoding relies on this).
	pendingInFlight = 0x80
	// pendingDelayMask extracts the remaining-delay counter.
	pendingDelayMask = 0x3f
	// MaxGrantDelay is the largest representable remaining-delay counter of
	// an in-flight grant (the k of delayed-grants:p,k).
	MaxGrantDelay = pendingDelayMask
)

// pendingGrants holds the in-flight grant bytes, one per adjacency slot.
type pendingGrants struct{ slots []uint8 }

// World is the complete state of a generalized dining-philosopher system
// together with run-time bookkeeping (metrics and the event recorder), which
// is excluded from Clone-equality and Key.
type World struct {
	Topo  *graph.Topology
	Phils []PhilState
	Forks []ForkState
	// req and used are the flat per-(fork, adjacent philosopher) request-list
	// and guest-book arrays, indexed by Topo.SlotBase(f)+Topo.Slot(f, p).
	req  []bool
	used []int64
	// Globals is shared auxiliary state used only by the non-distributed
	// baseline algorithms (central monitor, ticket box). Empty for the
	// symmetric fully distributed algorithms.
	Globals []int64
	// pending is the flat per-(fork, adjacent philosopher) in-flight grant
	// array of the delayed-grants fault model, indexed like req/used, or nil
	// when no fault model ever put a grant in flight. It sits behind a
	// pointer so a fault-free World carries only a nil word (keeping World in
	// its heap size class, which the allocation pins depend on), and its
	// all-zero state is observably identical to nil (see AppendKey).
	pending *pendingGrants
	// Step counts atomic actions executed so far.
	Step int64

	// Metrics (not part of Key). On protocol-only worlds (CloneProtocol) the
	// metric slices are nil and the mutation helpers skip metric updates.

	// TotalEats is the number of completed meals.
	TotalEats int64
	// EatsBy[p] is the number of completed meals of philosopher p.
	EatsBy []int64
	// FirstEatStep is the step at which the first meal started, or -1.
	FirstEatStep int64
	// FirstEatBy[p] is the step at which philosopher p first started eating,
	// or -1.
	FirstEatBy []int64
	// HungrySince[p] is the step at which philosopher p last became hungry,
	// or -1 if it is not currently hungry.
	HungrySince []int64
	// TotalWait accumulates, over completed meals, the number of steps between
	// becoming hungry and starting to eat.
	TotalWait int64
	// ScheduledCount[p] counts how many times p was scheduled.
	ScheduledCount []int64
	// LastScheduled[p] is the step at which p was last scheduled, or -1.
	// Adversaries use it to spread their harmless "idle" scheduling evenly so
	// that fairness pressure never builds up behind their back.
	LastScheduled []int64

	rec Recorder
}

// NewWorld returns a World in the initial state required by the paper's
// symmetry condition: every philosopher thinking with program counter 1 and no
// selection, every fork free with nr = 0, empty request lists and guest books.
func NewWorld(topo *graph.Topology) *World {
	n := topo.NumPhilosophers()
	k := topo.NumForks()
	w := &World{
		Topo:         topo,
		Phils:        make([]PhilState, n),
		Forks:        make([]ForkState, k),
		req:          make([]bool, topo.TotalSlots()),
		used:         make([]int64, topo.TotalSlots()),
		Step:         0,
		FirstEatStep: -1,
	}
	for p := range w.Phils {
		w.Phils[p] = PhilState{PC: 1, Phase: Thinking, First: graph.NoFork}
	}
	for f := range w.Forks {
		w.Forks[f] = ForkState{Holder: graph.NoPhil, NR: 0}
	}
	for i := range w.used {
		w.used[i] = -1
	}
	w.EnsureMetrics()
	return w
}

// EnsureMetrics allocates the metric slices if the world is a protocol-only
// clone, so that it can be handed to the run engine. It is a no-op on worlds
// that already carry metrics.
func (w *World) EnsureMetrics() {
	if w.EatsBy != nil {
		return
	}
	n := len(w.Phils)
	w.EatsBy = make([]int64, n)
	w.FirstEatBy = make([]int64, n)
	w.HungrySince = make([]int64, n)
	w.ScheduledCount = make([]int64, n)
	w.LastScheduled = make([]int64, n)
	for p := 0; p < n; p++ {
		w.FirstEatBy[p] = -1
		w.HungrySince[p] = -1
		w.LastScheduled[p] = -1
	}
}

// ResetMetrics zeroes the run metrics in place, so a recycled world (see
// CloneProtocolInto) starts its next run with the bookkeeping of a freshly
// built one. On a protocol-only world it allocates the metric slices like
// EnsureMetrics.
func (w *World) ResetMetrics() {
	w.TotalEats = 0
	w.FirstEatStep = -1
	w.TotalWait = 0
	if w.EatsBy == nil {
		w.EnsureMetrics()
		return
	}
	for p := range w.EatsBy {
		w.EatsBy[p] = 0
		w.FirstEatBy[p] = -1
		w.HungrySince[p] = -1
		w.ScheduledCount[p] = 0
		w.LastScheduled[p] = -1
	}
}

// EnsurePending allocates the pending-grant array if the world does not have
// one yet. The delayed-grants fault model calls it from Init when its rate is
// positive; fault-free worlds never allocate the array, keeping their clones
// and keys untouched.
func (w *World) EnsurePending() {
	if w.pending == nil {
		w.pending = &pendingGrants{slots: make([]uint8, w.Topo.TotalSlots())}
	}
}

// ForkUsed returns the guest-book entries of fork f, indexed by adjacency
// slot: the step of each philosopher's last signature, or -1. The returned
// slice aliases the world's state.
func (w *World) ForkUsed(f graph.ForkID) []int64 {
	base := w.Topo.SlotBase(f)
	return w.used[base : base+w.Topo.Degree(f)]
}

// SetRecorder installs an event recorder (may be nil to disable recording).
func (w *World) SetRecorder(r Recorder) { w.rec = r }

// Clone returns a deep copy of the world sharing only the immutable topology
// and dropping the event recorder.
func (w *World) Clone() *World {
	c := &World{
		Topo:         w.Topo,
		Phils:        append([]PhilState(nil), w.Phils...),
		Forks:        append([]ForkState(nil), w.Forks...),
		req:          append([]bool(nil), w.req...),
		used:         append([]int64(nil), w.used...),
		Globals:      append([]int64(nil), w.Globals...),
		Step:         w.Step,
		TotalEats:    w.TotalEats,
		FirstEatStep: w.FirstEatStep,
		TotalWait:    w.TotalWait,
	}
	if w.pending != nil {
		c.pending = &pendingGrants{slots: append([]uint8(nil), w.pending.slots...)}
	}
	if w.EatsBy != nil {
		c.EatsBy = append([]int64(nil), w.EatsBy...)
		c.FirstEatBy = append([]int64(nil), w.FirstEatBy...)
		c.HungrySince = append([]int64(nil), w.HungrySince...)
		c.ScheduledCount = append([]int64(nil), w.ScheduledCount...)
		c.LastScheduled = append([]int64(nil), w.LastScheduled...)
	}
	return c
}

// CloneProtocol returns a copy of the protocol state only: the metric slices
// of the copy are nil (mutation helpers skip them) and the recorder is
// dropped. It is what the model checker clones per explored transition.
func (w *World) CloneProtocol() *World {
	return w.CloneProtocolInto(nil)
}

// CloneProtocolInto is CloneProtocol reusing dst's backing slices when dst is
// a world of the same topology (as produced by a previous CloneProtocol).
// Passing nil allocates a fresh copy. It returns the clone, which is dst
// whenever dst was usable.
func (w *World) CloneProtocolInto(dst *World) *World {
	if dst == nil || dst.Topo != w.Topo {
		c := &World{
			Topo:    w.Topo,
			Phils:   append([]PhilState(nil), w.Phils...),
			Forks:   append([]ForkState(nil), w.Forks...),
			req:     append([]bool(nil), w.req...),
			used:    append([]int64(nil), w.used...),
			Globals: append([]int64(nil), w.Globals...),
			Step:    w.Step,
		}
		if w.pending != nil {
			c.pending = &pendingGrants{slots: append([]uint8(nil), w.pending.slots...)}
		}
		return c
	}
	copy(dst.Phils, w.Phils)
	copy(dst.Forks, w.Forks)
	copy(dst.req, w.req)
	copy(dst.used, w.used)
	dst.Globals = append(dst.Globals[:0], w.Globals...)
	switch {
	case w.pending == nil:
		dst.pending = nil
	case dst.pending != nil:
		copy(dst.pending.slots, w.pending.slots)
	default:
		dst.pending = &pendingGrants{slots: append([]uint8(nil), w.pending.slots...)}
	}
	dst.Step = w.Step
	return dst
}

// View returns a world that shares w's protocol state — the philosopher and
// fork slices, request lists, guest books, pending grants and globals — but
// owns its Step (which guest-book signatures record) and its TotalEats, and
// carries no other metrics and no recorder. Several goroutines can so step
// one shared world, each through its own view, serializing conflicting
// steps themselves (see Program on step locality). Program.Init must have
// sized Globals and the pending-grant array first: a view that grew either
// would stop sharing it.
func (w *World) View() *World {
	return &World{
		Topo:         w.Topo,
		Phils:        w.Phils,
		Forks:        w.Forks,
		req:          w.req,
		used:         w.used,
		Globals:      w.Globals,
		pending:      w.pending,
		Step:         w.Step,
		FirstEatStep: -1,
	}
}

// CloneLocalInto copies into dst the part of w that a step of philosopher p
// may read or write (see Program on step locality): p's PhilState, its two
// forks with every adjacency slot of their request lists, guest books and
// pending grants, and the globals. It reuses dst's arrays when dst has w's
// topology and allocates otherwise; entries outside p's neighbourhood are
// unspecified. Reading nothing else, it is safe while other goroutines step
// philosophers that share no fork with p.
func (w *World) CloneLocalInto(dst *World, p graph.PhilID) *World {
	if dst == nil || dst.Topo != w.Topo {
		dst = &World{
			Topo:  w.Topo,
			Phils: make([]PhilState, len(w.Phils)),
			Forks: make([]ForkState, len(w.Forks)),
			req:   make([]bool, len(w.req)),
			used:  make([]int64, len(w.used)),
		}
	}
	if w.pending == nil {
		dst.pending = nil
	} else {
		dst.EnsurePending()
	}
	dst.Phils[p] = w.Phils[p]
	for _, f := range w.Topo.Forks(p) {
		dst.Forks[f] = w.Forks[f]
		lo, hi := w.Topo.SlotBase(f), w.Topo.SlotBase(f)+w.Topo.Degree(f)
		copy(dst.req[lo:hi], w.req[lo:hi])
		copy(dst.used[lo:hi], w.used[lo:hi])
		if w.pending != nil {
			copy(dst.pending.slots[lo:hi], w.pending.slots[lo:hi])
		}
	}
	dst.Globals = append(dst.Globals[:0], w.Globals...)
	dst.Step = w.Step
	return dst
}

// AppendKey appends the canonical binary encoding of the protocol-relevant
// state (see the package comment for the format) to buf and returns the
// extended buffer. It performs no allocations beyond growing buf, so a caller
// that reuses the buffer across calls encodes keys allocation-free in steady
// state.
func (w *World) AppendKey(buf []byte) []byte {
	for i := range w.Phils {
		p := &w.Phils[i]
		flags := byte(p.Phase) & 0x3
		if p.HasFirst {
			flags |= 1 << 2
		}
		if p.HasSecond {
			flags |= 1 << 3
		}
		if p.Crashed {
			flags |= 1 << 4
		}
		buf = append(buf, p.PC, flags)
		buf = appendUvarint(buf, uint64(p.First+1))
		buf = appendVarint(buf, p.Aux[0])
		buf = appendVarint(buf, p.Aux[1])
	}
	for i := range w.Forks {
		f := &w.Forks[i]
		buf = appendUvarint(buf, uint64(f.Holder+1))
		buf = appendUvarint(buf, uint64(f.NR))
		base := w.Topo.SlotBase(graph.ForkID(i))
		deg := w.Topo.Degree(graph.ForkID(i))
		var bits, nbits byte
		for s := 0; s < deg; s++ {
			if w.req[base+s] {
				bits |= 1 << nbits
			}
			if nbits++; nbits == 8 {
				buf = append(buf, bits)
				bits, nbits = 0, 0
			}
		}
		if nbits > 0 {
			buf = append(buf, bits)
		}
		buf = appendGuestBookRanks(buf, w.used[base:base+deg])
	}
	buf = appendUvarint(buf, uint64(len(w.Globals)))
	for _, g := range w.Globals {
		buf = appendVarint(buf, g)
	}
	if w.pending != nil {
		for s, v := range w.pending.slots {
			if v != 0 {
				buf = appendUvarint(buf, uint64(s+1))
				buf = append(buf, v)
			}
		}
	}
	return buf
}

// appendUvarint appends v in unsigned LEB128.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendVarint appends v in zigzag LEB128.
func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// appendGuestBookRanks appends, per adjacency slot, one byte holding the rank
// of the slot's guest-book entry plus one (0 encodes "never signed"). The
// rank of an entry is the number of distinct smaller non-negative entries in
// used, so two guest books with the same relative signing order encode
// identically — only comparisons between entries of the same fork are
// observable (World.Cond), and rank normalization keeps the state space
// finite for model checking. Fork degrees are tiny in every topology of the
// paper, so the quadratic scan beats sorting and allocates nothing.
func appendGuestBookRanks(buf []byte, used []int64) []byte {
	for _, ui := range used {
		if ui < 0 {
			buf = append(buf, 0)
			continue
		}
		rank := 0
		for j, uj := range used {
			if uj < 0 || uj >= ui {
				continue
			}
			// Count each distinct smaller value once (first occurrence only).
			first := true
			for k := 0; k < j; k++ {
				if used[k] == uj {
					first = false
					break
				}
			}
			if first {
				rank++
			}
		}
		buf = append(buf, byte(rank+1))
	}
	return buf
}

// --- Generic state queries used by schedulers, adversaries and detectors ---

// IsFree reports whether fork f is not held by any philosopher and not
// reserved by an in-flight grant (delayed-grants fault model): a reserved
// fork is committed to its holder-to-be, so every observer — including the
// algorithms' own courtesy guards — sees it as busy until the grant is
// delivered and the reservee takes it.
func (w *World) IsFree(f graph.ForkID) bool {
	return w.Forks[f].Holder == graph.NoPhil && (w.pending == nil || !w.forkReserved(f))
}

// PhaseOf returns the phase of philosopher p.
func (w *World) PhaseOf(p graph.PhilID) Phase { return w.Phils[p].Phase }

// IsEating reports whether philosopher p is eating.
//
//dplint:ok unused test seam: the pre-bitset livelock advisor, kept verbatim as internal/sched's reference, reads states through it
func (w *World) IsEating(p graph.PhilID) bool { return w.Phils[p].Phase == Eating }

// FirstForkOf returns the fork currently selected as first fork by p, or
// graph.NoFork.
//
//dplint:ok unused test seam: the pre-bitset livelock advisor, kept verbatim as internal/sched's reference, reads states through it
func (w *World) FirstForkOf(p graph.PhilID) graph.ForkID { return w.Phils[p].First }

// SecondForkOf returns the fork opposite to p's current selection, or
// graph.NoFork if p has no selection.
func (w *World) SecondForkOf(p graph.PhilID) graph.ForkID {
	first := w.Phils[p].First
	if first == graph.NoFork {
		return graph.NoFork
	}
	return w.Topo.OtherFork(p, first)
}

// HoldsOnlyFirst reports whether p holds exactly its first fork.
func (w *World) HoldsOnlyFirst(p graph.PhilID) bool {
	return w.Phils[p].HasFirst && !w.Phils[p].HasSecond
}

// IsCommitted reports whether p has selected a first fork it does not yet
// hold — the "empty arrow" of the paper's figures.
//
//dplint:ok unused test seam: the pre-bitset livelock advisor, kept verbatim as internal/sched's reference, reads states through it
func (w *World) IsCommitted(p graph.PhilID) bool {
	st := &w.Phils[p]
	return st.Phase == Hungry && st.First != graph.NoFork && !st.HasFirst
}

// CouldEatNext reports whether p holds its first fork and its second fork is
// currently free: scheduling p repeatedly from such a state leads to eating
// (the livelock adversary's "dangerous" predicate).
//
//dplint:ok unused test seam: the pre-bitset livelock advisor, kept verbatim as internal/sched's reference, reads states through it
func (w *World) CouldEatNext(p graph.PhilID) bool {
	if !w.HoldsOnlyFirst(p) {
		return false
	}
	second := w.SecondForkOf(p)
	return second != graph.NoFork && w.IsFree(second)
}

// CheckInvariants verifies the structural invariants that every algorithm must
// preserve: fork holders hold adjacent forks, holder bookkeeping matches
// philosopher bookkeeping, a fork has at most one holder, and eating
// philosophers hold both forks. It returns a descriptive error on violation.
// It is used by tests and by the engine in debug mode.
func (w *World) CheckInvariants() error {
	holderSeen := make(map[graph.ForkID]graph.PhilID)
	for f := range w.Forks {
		h := w.Forks[f].Holder
		if h == graph.NoPhil {
			continue
		}
		if int(h) < 0 || int(h) >= len(w.Phils) {
			return fmt.Errorf("sim: fork %d held by out-of-range philosopher %d", f, h)
		}
		adjacent := false
		for _, fk := range w.Topo.Forks(h) {
			if fk == graph.ForkID(f) {
				adjacent = true
			}
		}
		if !adjacent {
			return fmt.Errorf("sim: fork %d held by non-adjacent philosopher %d", f, h)
		}
		holderSeen[graph.ForkID(f)] = h
	}
	for p := range w.Phils {
		st := &w.Phils[p]
		if st.HasSecond && !st.HasFirst {
			return fmt.Errorf("sim: philosopher %d holds second fork without first", p)
		}
		if st.HasFirst {
			if st.First == graph.NoFork {
				return fmt.Errorf("sim: philosopher %d marked holding first fork but has no selection", p)
			}
			if w.Forks[st.First].Holder != graph.PhilID(p) {
				return fmt.Errorf("sim: philosopher %d claims fork %d but fork holder is %d", p, st.First, w.Forks[st.First].Holder)
			}
		}
		if st.HasSecond {
			second := w.Topo.OtherFork(graph.PhilID(p), st.First)
			if w.Forks[second].Holder != graph.PhilID(p) {
				return fmt.Errorf("sim: philosopher %d claims second fork %d but fork holder is %d", p, second, w.Forks[second].Holder)
			}
		}
		if st.Phase == Eating && !(st.HasFirst && st.HasSecond) {
			return fmt.Errorf("sim: philosopher %d eating without both forks", p)
		}
		if st.Crashed && (st.HasFirst || st.HasSecond || st.Phase != Thinking || st.First != graph.NoFork) {
			return fmt.Errorf("sim: crashed philosopher %d still participates in the protocol (%+v)", p, st)
		}
	}
	if w.pending != nil {
		if len(w.pending.slots) != w.Topo.TotalSlots() {
			return fmt.Errorf("sim: pending-grant array has %d slots, topology has %d", len(w.pending.slots), w.Topo.TotalSlots())
		}
		for p := range w.Phils {
			inFlight := 0
			for _, f := range w.Topo.Forks(graph.PhilID(p)) {
				v := w.pending.slots[w.slotIndex(f, graph.PhilID(p))]
				if v == 0 {
					continue
				}
				if v&pendingInFlight == 0 {
					return fmt.Errorf("sim: pending slot of fork %d / philosopher %d is %#x without the in-flight bit", f, p, v)
				}
				inFlight++
				if h := w.Forks[f].Holder; h != graph.NoPhil {
					return fmt.Errorf("sim: fork %d has a grant in flight to philosopher %d but is held by %d", f, p, h)
				}
				if w.Phils[p].Phase != Hungry {
					return fmt.Errorf("sim: grant in flight to philosopher %d, which is %s rather than hungry", p, w.Phils[p].Phase)
				}
			}
			if inFlight > 1 {
				return fmt.Errorf("sim: philosopher %d has %d grants in flight; the delay model stalls a philosopher with one", p, inFlight)
			}
		}
	}
	// Every held fork's holder must acknowledge holding it.
	//dplint:ok maporder error path: any one violation's error suffices, and a valid world returns nil either way
	for f, h := range holderSeen {
		st := &w.Phils[h]
		owns := (st.HasFirst && st.First == f) ||
			(st.HasSecond && st.First != graph.NoFork && w.Topo.OtherFork(h, st.First) == f)
		if !owns {
			return fmt.Errorf("sim: fork %d lists holder %d but philosopher does not acknowledge it", f, h)
		}
	}
	return nil
}

// String renders a compact single-line description of the state, mainly for
// test failure messages. For full diagrams use package trace.
func (w *World) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d |", w.Step)
	for p := range w.Phils {
		st := &w.Phils[p]
		phase := st.Phase.String()
		if st.Crashed {
			phase = "crashed"
		}
		fmt.Fprintf(&b, " P%d[%s pc%d", p, phase, st.PC)
		if st.First != graph.NoFork {
			fmt.Fprintf(&b, " f%d", st.First)
			if st.HasFirst {
				b.WriteString("*")
			}
			if st.HasSecond {
				b.WriteString("*")
			}
		}
		if f, delay, ok := w.PendingGrant(graph.PhilID(p)); ok {
			fmt.Fprintf(&b, " g%d~%d", f, delay)
		}
		b.WriteString("]")
	}
	b.WriteString(" |")
	for f := range w.Forks {
		fs := &w.Forks[f]
		fmt.Fprintf(&b, " f%d(nr%d", f, fs.NR)
		if fs.Holder != graph.NoPhil {
			fmt.Fprintf(&b, " P%d", fs.Holder)
		}
		b.WriteString(")")
	}
	return b.String()
}
