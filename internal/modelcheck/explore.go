// Package modelcheck explores the complete state space of small generalized
// dining-philosopher systems and analyses it as a Markov decision process
// (MDP): the adversary chooses which philosopher moves, the random draws of
// the algorithms resolve probabilistically.
//
// The paper's positive and negative results are statements about this MDP:
//
//   - Theorems 1 and 2 assert that, on suitable topologies, there EXISTS a
//     fair adversary under which LR1 (respectively LR2) makes no progress
//     with positive probability.
//   - Theorems 3 and 4 assert that under EVERY fair adversary GDP1 makes
//     progress (and GDP2 serves every philosopher) with probability 1.
//
// The corresponding verifiable structure is an end component of the
// "no protected philosopher eats" sub-MDP that offers an allowed action for
// every philosopher: inside such a component the adversary can stay forever
// with probability 1 while scheduling every philosopher infinitely often
// (fairness), so its existence is exactly the negative result, and its
// absence on every reachable part of the state space certifies the positive
// result for the explored instance. FindStarvationTrap computes it. The
// graph and game algorithms themselves live in internal/graphalg and operate
// on the read-only graphalg.StateView interface, which StateSpace
// implements; this package owns only the storage and the exploration.
//
// # Storage
//
// States are deduplicated in 2^k independently-owned shards (Options.
// Shards). Each shard holds its own intern table (canonical key → local id)
// with its key arena, and the map from local ids to dense ids; a state
// belongs to the shard selected by the low bits of a seedless 64-bit hash of
// its canonical key, and its shard-internal address is the packed id
// shard<<localBits | local. The intern table is flat and pointer-free: an
// open-addressing []uint64 of hash tags and local ids over a chunked byte
// arena of keys (intern.go). Each successor key is hashed exactly once; the
// hash picks the shard and feeds every probe. During parallel exploration
// every shard is written by exactly one goroutine, so interning needs no
// locks and no single sequential merge.
//
// Every state also has a dense id: states are numbered 0..NumStates-1 in
// exploration (breadth-first discovery) order, which is the numbering every
// exported method and analysis uses. The dense order is identical for every
// (workers, shards) combination — it equals the numbering of a search that
// expands one state at a time — so verdicts, witnesses and counterexample
// traces never depend on how the exploration was parallelized; only the
// internal shard layout does, and the layout test in golden_test.go pins the
// correspondence.
//
// The transitions live in one table in dense order, stored as CSR rows: one
// int32 offset per (state, philosopher) into a flat array of successor dense
// ids. graphalg.PredecessorIndex reads both in place (StateSpace.Rows), so
// the explored graph is stored once. The table holds no probabilities: every
// analysis is qualitative, and a counterexample step takes its probability
// from the outcome its replay applies.
//
// # Exploration order and parallelism
//
// Explore is a level-synchronous breadth-first search, the only loop at
// every (workers, shards) setting. Each BFS level runs four phases:
//
//  1. Expand: workers expand disjoint contiguous chunks of the level against
//     the read-only shard intern tables and record, per chunk, the outcome
//     count of each action and one successor reference per outcome (a dense
//     id for a known state, a pending index for a locally new one).
//  2. Intern: one goroutine per shard replays every chunk's pending keys in
//     (chunk, first-encounter) order and interns the ones hashing to its
//     shard, assigning packed ids — disjoint shards, no lock, no global
//     merge.
//  3. Gather: workers assign the new states their dense ids — the (chunk,
//     first-encounter) order is exactly the breadth-first discovery order —
//     record state labels, and build the next frontier.
//  4. Rows: one goroutine per chunk writes the transition rows of its
//     states, resolving pending references through the intern results. A
//     chunk's states are a contiguous dense range, so its rows are a
//     contiguous range of the level's block: one exactly sized offset and
//     successor array per level.
//
// A phase over a single chunk or shard runs inline on the calling goroutine,
// so an exploration at Workers: 1 and one shard starts no goroutine.
//
// When the last level is done, Explore seals the blocks, in level order, and
// one self-loop per philosopher for each state left unexpanded into the
// space's table, allocated once at its exact size (an outcome count that
// would overflow the int32 offsets is an error).
//
// A capped exploration stops after the first state, in dense order, whose
// expansion takes the state count past Options.MaxStates. A chunk stops
// expanding after the frontier entry at which its own pendings first
// outnumber the room the cap leaves the level: they are distinct new states,
// so the level is cut at or before that entry. A level that could pass the
// cap is then cut before its intern phase: replaying the level's pending
// keys in (chunk, first-encounter) order through a throwaway table counts
// exactly the states the intern phase would create, the records are
// truncated after the first frontier entry whose creations pass the cap, and
// the kept prefix runs the four phases like any other level.
package modelcheck

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Options configures an exploration.
type Options struct {
	// MaxStates caps the number of distinct states explored; beyond it the
	// exploration stops and the result is marked Truncated. Zero means
	// DefaultMaxStates.
	MaxStates int
	// Protected is the set of philosophers whose meals count as "bad" for the
	// starvation-trap analysis; nil or empty means all philosophers.
	Protected []graph.PhilID
	// Interrupt is polled periodically during exploration when non-nil; a
	// non-nil return aborts Explore with that error. It is how context
	// cancellation reaches the exploration loop.
	Interrupt func() error
	// Workers bounds the exploration goroutines (0 = one per CPU). The
	// explored space is identical for every value; only wall-clock changes.
	Workers int
	// Shards is the number of independently-owned state stores (rounded up
	// to a power of two, capped at MaxShards; 0 = match the resolved worker
	// count). Workers intern and append into disjoint shards, removing the
	// sequential per-level merge; the dense state numbering — and therefore
	// every analysis, verdict and counterexample — is identical for every
	// value. Negative values are an error.
	Shards int
	// Symmetry, when non-nil and non-trivial, interns orbit-canonical keys
	// (sim.World.AppendCanonicalKey) instead of plain keys, quotienting the
	// state space by the canonicalizer's automorphism group: each stored
	// state is the first-discovered (representative) world of its orbit, and
	// the dense discovery-order numbering stays deterministic for every
	// (workers, shards) pair. Off (nil) by default; the nil path is
	// byte-identical to the unreduced exploration. The caller is responsible
	// for only quotienting by groups the program is equivariant under (see
	// dining.WithSymmetry for the gating) and for the canonicalizer matching
	// the explored topology. Crashed philosophers need no special casing:
	// the crashed flag rides in the permuted key image, so a crash pattern
	// only collides with its genuine automorphic images.
	Symmetry *graph.OrbitCanonicalizer
}

// DefaultMaxStates bounds explorations when Options.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// maskablePhils is the philosopher-count ceiling for the per-state eating
// bitmasks behind FindStarvationTrapAgainst. Instances beyond it (far larger
// than anything exhaustively explorable) simply skip the masks.
const maskablePhils = 64

const (
	// localBits is the width of the shard-local index inside a packed state
	// id: packed = shard<<localBits | local.
	localBits = 25
	// localMask extracts the shard-local index from a packed id.
	localMask = 1<<localBits - 1
	// MaxShards is the shard-count ceiling. MaxShards<<localBits is exactly
	// 1<<31, so every packed id fits an int32.
	MaxShards = 64
)

// shardStore is one independently-owned fragment of the state store.
type shardStore struct {
	// table dedupes states by canonical key; a key's value is its
	// shard-local index, and the table holds the key bytes. During a
	// parallel expansion phase it is strictly read-only (workers probe it
	// concurrently); all writes happen in the per-shard intern phase between
	// levels.
	table internTable
	// dense maps the shard-local index to the state's dense id.
	dense []int32
}

// StateSpace is the explored MDP: 2^k shard stores of the states plus the
// transition table and state labels in dense (exploration) order. It
// implements graphalg.StateView; all exported state indices are dense ids.
type StateSpace struct {
	topo *graph.Topology
	prog sim.Program

	// NumPhils is the number of philosophers (actions per state).
	NumPhils int
	// shards are the per-shard stores; len(shards) is a power of two.
	shards []shardStore
	// shardMask is len(shards)-1, the mask applied to the key hash.
	shardMask uint32
	// off and succs are the transition table: the outcomes of philosopher
	// a's action from dense state s lead to the dense states
	// succs[off[i]:off[i+1]], in outcome order, where i = s*NumPhils+a.
	off   []int32
	succs []int32
	// bad[s] reports whether a protected philosopher is eating in dense
	// state s.
	bad []bool
	// anyEating[s] reports whether any philosopher is eating in state s.
	anyEating []bool
	// eating[s] is the bitmask of philosophers eating in state s, backing
	// FindStarvationTrapAgainst; nil when NumPhils > maskablePhils.
	eating []uint64
	// protected is the eating bitmask of the protected set behind bad (see
	// philMask): it keys FindStarvationTrap's memoized trap, so
	// FindStarvationTrapAgainst of the same set shares it. 0 when eating is
	// nil.
	protected uint64
	// expanded[s] reports whether state s had its outgoing transitions fully
	// computed. States discovered but not expanded (possible only when
	// Truncated) are excluded from the safety analyses so that truncation can
	// never fabricate a trap.
	expanded []bool
	// Truncated reports whether MaxStates was hit; analyses on a truncated
	// space are only valid for the explored fragment.
	Truncated bool
	// canon is the orbit canonicalizer the space was quotiented by; nil when
	// the space is unreduced (including trivial-group requests).
	canon *graph.OrbitCanonicalizer
	// initial is the dense index of the initial state (always 0).
	initial int
	// workers is the resolved exploration worker count; the lazily built
	// predecessor index reuses it for its parallel construction.
	workers int
	// memo holds the predecessor index and every exhaustive analysis of this
	// space, each computed at most once (see analyses.go). It is nil until
	// the first analysis, so an exploration allocates nothing for it, and
	// it is a single word: the struct is 256 bytes, filling the 256-byte
	// size class, and the exploration allocation pins count it.
	memo atomic.Pointer[analysisMemo]
}

// NumStates returns the number of distinct states explored.
func (ss *StateSpace) NumStates() int { return len(ss.bad) }

// NumActions returns the number of actions per state (one per philosopher).
// It implements graphalg.StateView.
func (ss *StateSpace) NumActions() int { return ss.NumPhils }

// Initial returns the dense index of the initial state.
func (ss *StateSpace) Initial() int { return ss.initial }

// Rows returns the transition table's offsets and successors, which the
// predecessor index reads in place. It implements graphalg.StateView.
func (ss *StateSpace) Rows() (off, succ []int32) { return ss.off, ss.succs }

// Bad reports whether a protected philosopher is eating in state s. It
// implements graphalg.StateView.
func (ss *StateSpace) Bad(s int) bool { return ss.bad[s] }

// Expanded reports whether state s had its outgoing transitions fully
// computed (false only on truncated explorations). It implements
// graphalg.StateView.
func (ss *StateSpace) Expanded(s int) bool { return ss.expanded[s] }

// Symmetric reports whether the space was explored under a symmetry quotient
// (Options.Symmetry with a non-trivial group).
func (ss *StateSpace) Symmetric() bool { return ss.canon != nil }

// denseOf returns the dense id of the state interned under key, or -1 when
// the key was never interned.
func (ss *StateSpace) denseOf(key []byte) int32 {
	h := hashKey(key)
	st := &ss.shards[ss.shardOfHash(h)]
	l, ok := st.table.find(h, key)
	if !ok {
		return -1
	}
	return st.dense[l]
}

// NumTransitions returns the total number of (state, philosopher) actions.
func (ss *StateSpace) NumTransitions() int { return ss.NumStates() * ss.NumPhils }

// shardOfHash returns the owning shard of a key with hashKey h: its low
// bits. The hash is seedless, so the layout is the same in every process.
func (ss *StateSpace) shardOfHash(h uint64) uint32 { return uint32(h) & ss.shardMask }

// shardOf returns the owning shard of a canonical key.
func (ss *StateSpace) shardOf(key []byte) uint32 { return ss.shardOfHash(hashKey(key)) }

// scratch is the reusable per-chunk expansion state: key and outcome
// buffers, a world free-list, and the record of the chunk awaiting the
// per-shard phases.
type scratch struct {
	keyBuf     []byte
	obuf, sbuf []sim.Outcome
	// free recycles protocol-clone worlds: revisited successors and expanded
	// frontier worlds go back here and their backing slices are reused by the
	// next clone.
	free []*sim.World

	// The chunk record. counts holds one entry per (state, action), its
	// number of outcomes; outs one per outcome, in (state, action, outcome)
	// order: its successor ref, a dense state id when >= 0, else pending
	// entry ^ref of the same chunk; pend the locally new successor states in
	// first-encounter order. local interns the pending keys (key -> pending
	// index, this level only) in one reused arena and resets in time
	// proportional to the level, from the hashes pend keeps. A cut truncates
	// the three slices.
	counts []int32
	outs   []int32
	pend   []pending
	local  internTable
	err    error
}

// pending is a successor state new to the shard tables when its chunk was
// expanded. The expand phase records its world and key hash; the intern
// phase sets packed, and created when this entry created the state rather
// than an earlier chunk's entry for the same key.
type pending struct {
	world   *sim.World
	hash    uint64
	packed  int32
	created bool
}

func (s *scratch) takeFree() *sim.World {
	if n := len(s.free); n > 0 {
		w := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return w
	}
	return nil
}

func (s *scratch) putFree(w *sim.World) { s.free = append(s.free, w) }

// shardScratch is the per-shard intern-phase state.
type shardScratch struct {
	// newPerChunk[ci] counts the states this shard created from chunk ci's
	// pendings in the last intern phase; the gather phase prefix-sums these
	// into dense-id bases.
	newPerChunk []int32
	err         error
}

// explorer carries the shared state of one Explore call.
type explorer struct {
	ss *StateSpace
	// opts is the caller's Options with every knob normalized in place —
	// MaxStates resolved against the default, Symmetry trivial-group
	// requests cleared to nil — so the explorer carries no duplicate
	// resolved fields.
	opts      Options
	protected map[graph.PhilID]bool

	// front holds the worlds of the current BFS level in discovery order;
	// nextFront collects the next level in the gather phase. levelStart is
	// the dense id of front[0]: the level's states are dense-contiguous, so
	// front[i] is state levelStart+i.
	front      []*sim.World
	nextFront  []*sim.World
	levelStart int

	// The current level's bookkeeping, which the phase functions read: known
	// is the state count before the level; chunk ci covers the frontier
	// entries from ci*chunk, active chunks run, and scratches[ci] holds
	// chunk ci's record; chunkBase[ci] is the first dense id of chunk ci's
	// new states counted from known, and chunkOut[ci] the index of its first
	// outcome in block, the level's rows.
	known, chunk, active int
	scratches            []*scratch
	shardScr             []shardScratch
	chunkBase, chunkOut  []int
	block                rowBlock
	wg                   sync.WaitGroup

	// blocks holds the rows, one block per expanded level, and outcomes
	// their total outcome count; seal turns them into the space's table.
	blocks   []rowBlock
	outcomes int
}

// rowBlock is the transition rows of one BFS level's expanded states, a
// contiguous dense range: off holds the table offset of each (state,
// philosopher) of the range, counted from the first outcome of the first
// level, and succs the level's outcomes. Both arrays are allocated at their
// exact size.
type rowBlock struct {
	off   []int32
	succs []int32
}

// isProtected reports whether p's meals count as "bad".
func (e *explorer) isProtected(p graph.PhilID) bool {
	return len(e.protected) == 0 || e.protected[p]
}

// appendKey appends the intern key of w: the orbit-canonical encoding under a
// symmetry quotient, the plain encoding otherwise. The nil-canon branch keeps
// the unreduced path byte-identical to a plain AppendKey call.
func (e *explorer) appendKey(w *sim.World, buf []byte) []byte {
	if c := e.opts.Symmetry; c != nil {
		return w.AppendCanonicalKey(c, buf)
	}
	return w.AppendKey(buf)
}

// growStates extends the per-state labels by n new, unexpanded states.
func (e *explorer) growStates(n int) {
	ss := e.ss
	ss.bad = grown(ss.bad, n)
	ss.anyEating = grown(ss.anyEating, n)
	ss.expanded = grown(ss.expanded, n)
	if ss.NumPhils <= maskablePhils {
		ss.eating = grown(ss.eating, n)
	}
}

// label records the labels of the new dense state d, whose world is w.
func (e *explorer) label(d int, w *sim.World) {
	ss := e.ss
	var mask uint64
	for p := range w.Phils {
		if w.Phils[p].Phase != sim.Eating {
			continue
		}
		ss.anyEating[d] = true
		if p < maskablePhils {
			mask |= 1 << uint(p)
		}
		if e.isProtected(graph.PhilID(p)) {
			ss.bad[d] = true
		}
	}
	if ss.eating != nil {
		ss.eating[d] = mask
	}
}

// errShardOverflow reports a shard that ran out of local ids.
func errShardOverflow(g uint32) error {
	return fmt.Errorf("modelcheck: shard %d overflowed %d states; raise Options.Shards", g, localMask+1)
}

// resolveShards normalizes an Options.Shards value against the resolved
// worker count: 0 matches workers, everything is rounded up to a power of
// two and capped at MaxShards.
func resolveShards(shards, workers int) int {
	if shards <= 0 {
		shards = workers
	}
	k := 1
	for k < shards && k < MaxShards {
		k <<= 1
	}
	return k
}

// Explore builds the complete reachable state space of prog on topo.
func Explore(topo *graph.Topology, prog sim.Program, opts Options) (*StateSpace, error) {
	if topo == nil || prog == nil {
		return nil, fmt.Errorf("modelcheck: Explore requires a topology and a program")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("modelcheck: Options.Shards must be >= 0, got %d", opts.Shards)
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := resolveShards(opts.Shards, workers)
	canon := opts.Symmetry
	if canon != nil {
		if canon.Topology() != topo {
			return nil, fmt.Errorf("modelcheck: Options.Symmetry canonicalizer is for topology %q, not %q",
				canon.Topology().Name(), topo.Name())
		}
		if canon.Trivial() {
			canon = nil // the identity quotient is the unreduced exploration
		}
	}
	// The explorer carries the normalized options — resolved state cap,
	// trivial-group symmetry cleared — instead of duplicate resolved fields.
	opts.MaxStates = maxStates
	opts.Symmetry = canon

	ss := &StateSpace{
		topo:      topo,
		prog:      prog,
		NumPhils:  topo.NumPhilosophers(),
		shards:    make([]shardStore, shards),
		shardMask: uint32(shards - 1),
		protected: philMask(topo.NumPhilosophers(), opts.Protected),
		canon:     canon,
		workers:   workers,
	}
	e := &explorer{ss: ss, opts: opts}
	if len(opts.Protected) > 0 {
		e.protected = make(map[graph.PhilID]bool, len(opts.Protected))
		for _, p := range opts.Protected {
			e.protected[p] = true
		}
	}

	initial := sim.NewWorld(topo)
	prog.Init(initial)

	// The initial state is dense id 0, the whole first level.
	w0 := initial.CloneProtocol()
	key0 := e.appendKey(w0, nil)
	h0 := hashKey(key0)
	st := &ss.shards[ss.shardOfHash(h0)]
	st.table.intern(h0, key0)
	st.dense = append(st.dense, 0)
	e.growStates(1)
	e.label(0, w0)
	e.front = append(e.front, w0)

	if err := e.explore(workers); err != nil {
		return nil, err
	}
	if err := e.seal(); err != nil {
		return nil, err
	}
	return ss, nil
}

// seal completes the space's transition table: the blocks are copied, in
// level order, into a table allocated once at its exact size; then every
// state left unexpanded — the states after the last expanded one, possible
// only on a truncated exploration — gets one self-loop per philosopher, so
// that the analyses remain well defined, and off gets its closing entry. It
// fails when the outcome count would overflow the int32 offsets.
func (e *explorer) seal() error {
	ss := e.ss
	np := ss.NumPhils
	rows := 0
	for _, b := range e.blocks {
		rows += len(b.off)
	}
	loops := ss.NumStates()*np - rows
	if total := e.outcomes + loops; total > math.MaxInt32 {
		return fmt.Errorf("modelcheck: %d outcomes overflow the transition table's 32-bit offsets", total)
	}
	ss.off = make([]int32, 0, rows+loops+1)
	ss.succs = make([]int32, 0, e.outcomes+loops)
	for _, b := range e.blocks {
		ss.off = append(ss.off, b.off...)
		ss.succs = append(ss.succs, b.succs...)
	}
	e.blocks = nil
	for s := rows / np; s < ss.NumStates(); s++ {
		for range np {
			ss.off = append(ss.off, int32(len(ss.succs)))
			ss.succs = append(ss.succs, int32(s))
		}
	}
	ss.off = append(ss.off, int32(len(ss.succs)))
	return nil
}

// interruptCheckInterval is how often (in expanded states) Options.Interrupt
// is polled.
const interruptCheckInterval = 1024

// successor applies outs[i], outcome i of w's outcome set for philosopher
// pid, to a clone of w drawn from s's free-list, and encodes the clone's
// intern key into s.keyBuf. The clone for outcome 0 first asks for its own
// set and compares it with outs (count, then each outcome's probability,
// label and argument), so a program whose sets differ between equal worlds
// is refused rather than explored wrongly. The guard runs once per (state,
// philosopher), so an action costs two Outcomes calls however many outcomes
// it has.
func (e *explorer) successor(s *scratch, w *sim.World, pid graph.PhilID, outs []sim.Outcome, i int) (*sim.World, error) {
	ss := e.ss
	succ := w.CloneProtocolInto(s.takeFree())
	if i == 0 {
		probe := ss.prog.Outcomes(succ, pid, s.sbuf[:0])
		s.sbuf = probe
		if !sameOutcomes(probe, outs) {
			return nil, fmt.Errorf("modelcheck: %s produced unstable outcome sets for P%d", ss.prog.Name(), pid)
		}
	}
	outs[i].Do(succ, pid)
	succ.Step++
	s.keyBuf = e.appendKey(succ, s.keyBuf[:0])
	return succ, nil
}

// sameOutcomes reports whether two outcome sets agree in count and, outcome
// by outcome, in probability, label and argument.
func sameOutcomes(a, b []sim.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Prob != b[j].Prob || a[j].Arg != b[j].Arg || a[j].Label != b[j].Label {
			return false
		}
	}
	return true
}

// explore runs the BFS level by level through the four phases described in
// the package comment. Every phase runs over chunks (expand, gather, rows)
// or over shards (intern), and every write target is owned by exactly one
// unit, so the only synchronization is the barrier between phases. A level
// that could pass the state cap is first cut to the prefix a search
// expanding one state at a time would expand (cutLevel); the prefix runs
// the same four phases, and the exploration ends with it.
func (e *explorer) explore(workers int) error {
	ss := e.ss
	e.shardScr = make([]shardScratch, len(ss.shards))
	for len(e.front) > 0 {
		if e.opts.Interrupt != nil {
			if err := e.opts.Interrupt(); err != nil {
				return err
			}
		}

		// Phase 1: expand disjoint chunks of the level. A level runs
		// min(workers, level size) chunks; scratches are created as levels
		// first need them, so the per-chunk memory follows the work, not the
		// requested worker count.
		n := len(e.front)
		e.known = ss.NumStates()
		e.chunk = (n + workers - 1) / workers
		e.active = (n + e.chunk - 1) / e.chunk
		for len(e.scratches) < e.active {
			e.scratches = append(e.scratches, &scratch{})
		}
		e.phase(e.active, (*explorer).expandChunk)
		// The first error in chunk order keeps error reporting deterministic
		// (each chunk's contents are deterministic, so so is its error).
		for _, s := range e.scratches[:e.active] {
			if s.err != nil {
				return s.err
			}
		}

		// The pending total over-counts cross-chunk duplicates, so a level
		// it puts past the cap may still fit; cutLevel decides exactly.
		totalPending := 0
		for _, s := range e.scratches[:e.active] {
			totalPending += len(s.pend)
		}
		cut := false
		if e.known+totalPending > e.opts.MaxStates {
			e.active, cut = e.cutLevel()
		}

		// Phase 2: intern pending states, one unit per shard.
		e.phase(len(ss.shards), (*explorer).internShard)
		for _, sc := range e.shardScr {
			if sc.err != nil {
				return sc.err
			}
		}

		// Dense-id bases: chunk ci's creations become dense ids
		// known+chunkBase[ci].. in pending order — the global first-encounter
		// order, which is exactly the breadth-first discovery order.
		e.chunkBase = e.chunkBase[:0]
		totalCreated := 0
		for ci := range e.active {
			e.chunkBase = append(e.chunkBase, totalCreated)
			for _, sc := range e.shardScr {
				totalCreated += int(sc.newPerChunk[ci])
			}
		}
		e.growStates(totalCreated)
		e.nextFront = grown(e.nextFront[:0], totalCreated)

		// Phase 3: assign dense ids, record labels and build the next
		// frontier, one unit per chunk (disjoint dense-id ranges).
		e.phase(e.active, (*explorer).gatherChunk)

		// Phase 4: write the level's rows into one exactly sized block, one
		// unit per chunk (disjoint ranges of the block).
		rows, outs := 0, 0
		e.chunkOut = e.chunkOut[:0]
		for _, s := range e.scratches[:e.active] {
			e.chunkOut = append(e.chunkOut, outs)
			rows += len(s.counts)
			outs += len(s.outs)
		}
		e.block = rowBlock{off: make([]int32, rows), succs: make([]int32, outs)}
		e.phase(e.active, (*explorer).writeRows)
		e.blocks = append(e.blocks, e.block)
		e.outcomes += outs

		if cut {
			// The rest of the level stays unexpanded; its states and the
			// ones the prefix discovered get the seal's self-loops.
			ss.Truncated = true
			return nil
		}
		e.front, e.nextFront = e.nextFront, e.front[:0]
		e.levelStart = e.known
	}
	return nil
}

// phase runs f for the units 0..n-1 of one phase of the level, the chunks or
// the shards, and returns when all are done: inline when there is one unit,
// else on one goroutine each.
func (e *explorer) phase(n int, f func(e *explorer, unit int)) {
	if n == 1 {
		f(e, 0)
		return
	}
	e.wg.Add(n)
	for i := range n {
		go func() {
			defer e.wg.Done()
			f(e, i)
		}()
	}
	e.wg.Wait()
}

// cutLevel truncates the level's chunk records after the frontier entry at
// which a search expanding one state at a time stops (see the package
// comment), and drops every later chunk. A pending counts when the throwaway
// table first sees its key, exactly when the intern phase would create it.
// It returns the number of chunks kept and whether the level was cut; a
// level whose creations stay within the cap is left whole.
func (e *explorer) cutLevel() (active int, cut bool) {
	np := e.ss.NumPhils
	var seen internTable
	count := e.known
	for ci, s := range e.scratches[:e.active] {
		oi, pi := 0, 0
		for k := 0; k < len(s.counts)/np; k++ {
			for _, c := range s.counts[k*np : (k+1)*np] {
				for _, ref := range s.outs[oi : oi+int(c)] {
					// Pendings are numbered in first-encounter order, so
					// pending pi is first met by the outcome naming it next.
					if ref != ^int32(pi) {
						continue
					}
					if _, added := seen.intern(s.pend[pi].hash, s.local.key(int32(pi))); added {
						count++
					}
					pi++
				}
				oi += int(c)
			}
			if count > e.opts.MaxStates {
				s.counts = s.counts[:(k+1)*np]
				s.outs = s.outs[:oi]
				s.pend = s.pend[:pi]
				return ci + 1, true
			}
		}
	}
	return e.active, false
}

// expandChunk computes the record of chunk ci of the current level. It only
// reads shared state (the shard intern tables, the program, the frontier
// worlds of its own chunk) and writes the chunk's scratch. It stops after
// the entry at which the chunk's pendings outnumber the states the cap
// leaves the level: they are distinct new states, so cutLevel cuts the level
// at or before that entry, and no later entry would be kept.
func (e *explorer) expandChunk(ci int) {
	ss := e.ss
	s := e.scratches[ci]
	lo := ci * e.chunk
	worlds := e.front[lo:min(lo+e.chunk, len(e.front))]
	room := e.opts.MaxStates - e.known
	s.local.reset(len(s.pend), func(v int) uint64 { return s.pend[v].hash })
	s.counts = s.counts[:0]
	s.outs = s.outs[:0]
	s.pend = s.pend[:0]
	s.err = nil
	for k, w := range worlds {
		if e.opts.Interrupt != nil && k%interruptCheckInterval == 0 {
			if err := e.opts.Interrupt(); err != nil {
				s.err = err
				return
			}
		}
		for a := 0; a < ss.NumPhils; a++ {
			pid := graph.PhilID(a)
			// Outcomes must not mutate the world they are computed from, so
			// the frontier world can be probed directly; each outcome is
			// then applied to its own clone.
			outcomes := ss.prog.Outcomes(w, pid, s.obuf[:0])
			s.obuf = outcomes
			s.counts = push(s.counts, int32(len(outcomes)))
			for i := range outcomes {
				succ, err := e.successor(s, w, pid, outcomes, i)
				if err != nil {
					s.err = err
					return
				}
				h := hashKey(s.keyBuf)
				st := &ss.shards[ss.shardOfHash(h)]
				var ref int32
				if l, ok := st.table.find(h, s.keyBuf); ok {
					ref = st.dense[l]
					s.putFree(succ)
				} else if li, added := s.local.intern(h, s.keyBuf); !added {
					ref = ^li
					s.putFree(succ)
				} else {
					ref = ^li
					s.pend = push(s.pend, pending{world: succ, hash: h})
				}
				s.outs = push(s.outs, ref)
			}
		}
		s.putFree(w) // the frontier world is fully expanded
		if len(s.pend) > room {
			return
		}
	}
}

// internShard interns, into shard g, every pending state hashing to g, in
// (chunk, first-encounter) order — the restriction of the breadth-first
// discovery order to this shard, so shard-local numbering is deterministic
// for every worker count. Dense ids are left to the gather phase; every
// pending entry owned by g receives its state's packed id.
func (e *explorer) internShard(g int) {
	ss := e.ss
	st := &ss.shards[g]
	sc := &e.shardScr[g]
	sc.newPerChunk = grown(sc.newPerChunk[:0], e.active)
	sc.err = nil
	for ci, s := range e.scratches[:e.active] {
		created := int32(0)
		for li := range s.pend {
			p := &s.pend[li]
			if ss.shardOfHash(p.hash) != uint32(g) {
				continue
			}
			local, added := st.table.intern(p.hash, s.local.key(int32(li)))
			p.packed = int32(g)<<localBits | local
			if !added {
				continue
			}
			if local > localMask {
				sc.err = errShardOverflow(uint32(g))
				return
			}
			st.dense = push(st.dense, -1) // assigned in the gather phase
			p.created = true
			created++
		}
		sc.newPerChunk[ci] = created
	}
}

// gatherChunk walks chunk ci's pendings in first-encounter order and, for
// each entry that created its state, assigns the next dense id, records the
// state labels and frontier entry, and completes the shard's local→dense
// map. Entries that lost the intern race to an earlier chunk recycle their
// worlds. Chunks write disjoint dense-id ranges, so the phase is parallel.
func (e *explorer) gatherChunk(ci int) {
	ss := e.ss
	s := e.scratches[ci]
	d := e.known + e.chunkBase[ci]
	nf := e.nextFront[e.chunkBase[ci]:]
	j := 0
	for li := range s.pend {
		p := &s.pend[li]
		w := p.world
		p.world = nil
		if !p.created {
			s.putFree(w)
			continue
		}
		st := &ss.shards[p.packed>>localBits]
		st.dense[p.packed&localMask] = int32(d)
		e.label(d, w)
		nf[j] = w
		j++
		d++
	}
}

// writeRows writes the rows of chunk ci into the level's block: the chunk's
// states start at its first frontier entry and its outcomes at chunkOut[ci].
// Pending successor references resolve through the intern results. Chunks
// write disjoint ranges of the block, so the phase is parallel.
func (e *explorer) writeRows(ci int) {
	ss := e.ss
	s := e.scratches[ci]
	lo, out := ci*e.chunk, e.chunkOut[ci]
	// An offset past the int32 range makes seal fail, so a truncated one is
	// never read.
	off := int32(e.outcomes + out)
	for k, c := range s.counts {
		e.block.off[lo*ss.NumPhils+k] = off
		off += c
	}
	for i, sid := range s.outs {
		if sid < 0 {
			packed := s.pend[^sid].packed
			sid = ss.shards[packed>>localBits].dense[packed&localMask]
		}
		e.block.succs[out+i] = sid
	}
	for k := range len(s.counts) / ss.NumPhils {
		ss.expanded[e.levelStart+lo+k] = true
	}
}
