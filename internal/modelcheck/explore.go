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
// (workers, shards) combination — it equals the sequential exploration's
// numbering — so verdicts, witnesses and counterexample traces never depend
// on how the exploration was parallelized; only the internal shard layout
// does, and the layout test in golden_test.go pins the correspondence.
//
// The transitions live in one table in dense order, stored as CSR rows: one
// int32 offset per (state, philosopher) into flat succs (dense ids) and
// probs arrays. graphalg.PredecessorIndex reads the offsets and successors
// in place (StateSpace.Rows), so the explored graph is stored once.
//
// # Exploration order and parallelism
//
// Explore is a level-synchronous breadth-first search. Each BFS level runs
// four phases:
//
//  1. Expand: workers expand disjoint contiguous chunks of the level against
//     the read-only shard intern tables and record, per chunk, the outcome
//     probabilities and successor references (dense ids for known states,
//     pending indices for locally new ones).
//  2. Intern: one goroutine per shard replays every chunk's pending keys in
//     (chunk, first-encounter) order and interns the ones hashing to its
//     shard, assigning packed ids — disjoint shards, no lock, no global
//     merge.
//  3. Gather: workers assign the new states their dense ids — the (chunk,
//     first-encounter) order is exactly the order the sequential exploration
//     discovers them in — record state labels, and build the next frontier.
//  4. Rows: one goroutine per chunk writes the transition rows of its
//     states, resolving pending references through the intern results. A
//     chunk's states are a contiguous dense range, so its rows are a
//     contiguous range of the level's block: one exactly sized offset,
//     successor and probability array per level.
//
// When the last level is done, Explore seals the blocks, in level order, and
// one self-loop per philosopher for each state left unexpanded into the
// space's table, allocated once at its exact size (an outcome count that
// would overflow the int32 offsets is an error).
//
// The sequential path (workers = 1, shards = 1) is the same order executed
// inline with no phases, appending its rows to the space's table directly;
// it stops after the first state whose expansion takes the state count past
// Options.MaxStates. A level that could pass the cap is cut at that state
// before its intern phase: replaying the level's pending keys in (chunk,
// first-encounter) order through a throwaway table counts exactly the states
// the intern phase would create, the records are truncated after the first
// frontier entry whose creations pass the cap, and the kept prefix runs the
// four phases like any other level.
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
	// Workers bounds the exploration goroutines (0 = one per CPU,
	// 1 = sequential). The explored space is identical for every value; only
	// wall-clock changes.
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
	// off, succs and probs are the transition table: the outcomes of
	// philosopher a's action from dense state s are succs[off[i]:off[i+1]]
	// (dense ids) with probabilities probs[off[i]:off[i+1]], where
	// i = s*NumPhils+a.
	off   []int32
	succs []int32
	probs []float64
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
	// it is a single word: the struct is 280 bytes, in the 288-byte size
	// class, and the exploration allocation pins count it.
	memo atomic.Pointer[analysisMemo]
}

// NumStates returns the number of distinct states explored.
func (ss *StateSpace) NumStates() int { return len(ss.bad) }

// NumActions returns the number of actions per state (one per philosopher).
// It implements graphalg.StateView.
func (ss *StateSpace) NumActions() int { return ss.NumPhils }

// Initial returns the dense index of the initial state.
func (ss *StateSpace) Initial() int { return ss.initial }

// Probs returns the outcome probabilities of philosopher a's action from
// dense state s, aligned with its successors (graphalg.Succs). The returned
// slice aliases the transition table and must not be modified. It
// implements graphalg.StateView.
func (ss *StateSpace) Probs(s, a int) []float64 {
	i := s*ss.NumPhils + a
	return ss.probs[ss.off[i]:ss.off[i+1]]
}

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

// scratch is the reusable per-worker expansion state: key and outcome
// buffers, a world free-list, and — for the level loop — the record of the
// worker's chunk awaiting the per-shard phases.
type scratch struct {
	keyBuf     []byte
	obuf, sbuf []sim.Outcome
	// free recycles protocol-clone worlds: revisited successors and expanded
	// frontier worlds go back here and their backing slices are reused by the
	// next clone.
	free []*sim.World

	// The chunk record. counts holds one entry per (state, action), its
	// number of outcomes; outs one per outcome, in (state, action, outcome)
	// order; pend the locally new successor states in first-encounter order.
	// local interns the pending keys (key -> pending index, this level only)
	// in one reused arena and resets in time proportional to the level, from
	// the hashes pend keeps. A cut truncates the three slices.
	counts []int32
	outs   []outRef
	pend   []pending
	local  internTable
	err    error
}

// outRef is one recorded outcome: its probability and its successor, a dense
// state id when ref >= 0, else pending entry ^ref of the same chunk.
type outRef struct {
	prob float64
	ref  int32
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
	// resolved fields and keeps its pre-symmetry allocation size class.
	opts      Options
	protected map[graph.PhilID]bool

	// front holds the worlds of the current BFS level in discovery order
	// (sequentially: the whole queue, consumed in place); nextFront collects
	// the next level in the gather phase. levelStart is the dense id of
	// front[0]: the level's states are dense-contiguous, so front[i] is
	// state levelStart+i.
	front      []*sim.World
	nextFront  []*sim.World
	levelStart int

	// blocks holds the level loop's rows, one block per expanded level, and
	// outcomes their total outcome count; seal turns them into the space's
	// table.
	blocks   []rowBlock
	outcomes int
}

// rowBlock is the transition rows of one BFS level's expanded states, a
// contiguous dense range: off holds the table offset of each (state,
// philosopher) of the range, counted from the first outcome of the first
// level, and succs and probs the level's outcomes. Every array is allocated
// at its exact size.
type rowBlock struct {
	off   []int32
	succs []int32
	probs []float64
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

// stateFlags computes the per-state labels recorded at intern time.
func (e *explorer) stateFlags(w *sim.World) (bad, eat bool, mask uint64) {
	for p := range w.Phils {
		if w.Phils[p].Phase == sim.Eating {
			eat = true
			if p < maskablePhils {
				mask |= 1 << uint(p)
			}
			if e.isProtected(graph.PhilID(p)) {
				bad = true
			}
		}
	}
	return bad, eat, mask
}

// internState interns key, whose hashKey is h, into its shard. A new state
// gets its dense id and labels, from its world w, and added reports it;
// either way the state's dense id is returned. It serves the sequential loop
// and the initial state; the level loop splits the same work between
// internShard and gatherChunk.
func (e *explorer) internState(h uint64, key []byte, w *sim.World) (dense int32, added bool, err error) {
	ss := e.ss
	g := ss.shardOfHash(h)
	st := &ss.shards[g]
	local, added := st.table.intern(h, key)
	if !added {
		return st.dense[local], false, nil
	}
	if local > localMask {
		return 0, false, errShardOverflow(g)
	}
	dense = int32(len(ss.bad))
	st.dense = push(st.dense, dense)
	ss.expanded = push(ss.expanded, false)
	bad, eat, mask := e.stateFlags(w)
	ss.bad = push(ss.bad, bad)
	ss.anyEating = push(ss.anyEating, eat)
	if ss.NumPhils <= maskablePhils {
		ss.eating = push(ss.eating, mask)
	}
	return dense, true, nil
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

	w0 := initial.CloneProtocol()
	key0 := e.appendKey(w0, nil)
	if _, _, err := e.internState(hashKey(key0), key0, w0); err != nil {
		return nil, err
	}
	ss.initial = 0
	e.front = append(e.front, w0)

	var err error
	if workers == 1 && shards == 1 {
		err = e.exploreSequential()
	} else {
		err = e.exploreSharded(workers)
	}
	if err == nil {
		err = e.seal()
	}
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// seal completes the space's transition table. The level loop's blocks are
// copied, in level order, into a table allocated once at its exact size
// (the sequential loop has appended its rows to the table already); then
// every state left unexpanded — the states after the last expanded one,
// possible only on a truncated exploration — gets one self-loop per
// philosopher, so that the analyses remain well defined, and off gets its
// closing entry. It fails when the outcome count would overflow the int32
// offsets.
func (e *explorer) seal() error {
	ss := e.ss
	np := ss.NumPhils
	rows, outs := len(ss.off), len(ss.succs)
	for _, b := range e.blocks {
		rows += len(b.off)
		outs += len(b.succs)
	}
	loops := ss.NumStates()*np - rows
	if total := outs + loops; total > math.MaxInt32 {
		return fmt.Errorf("modelcheck: %d outcomes overflow the transition table's 32-bit offsets", total)
	}
	if len(e.blocks) > 0 {
		ss.off = make([]int32, 0, rows+loops+1)
		ss.succs = make([]int32, 0, outs+loops)
		ss.probs = make([]float64, 0, outs+loops)
		for _, b := range e.blocks {
			ss.off = append(ss.off, b.off...)
			ss.succs = append(ss.succs, b.succs...)
			ss.probs = append(ss.probs, b.probs...)
		}
		e.blocks = nil
	}
	for s := rows / np; s < ss.NumStates(); s++ {
		for range np {
			ss.off = push(ss.off, int32(len(ss.succs)))
			ss.succs = push(ss.succs, int32(s))
			ss.probs = push(ss.probs, 1)
		}
	}
	ss.off = push(ss.off, int32(len(ss.succs)))
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

// exploreSequential runs the BFS inline on a single shard, appending each
// expanded state's rows to the space's table. front doubles as the FIFO
// queue: new states are appended in id order, so the world of state id sits
// at front[id] until the state is expanded, and the rows are written in
// dense order.
func (e *explorer) exploreSequential() error {
	ss := e.ss
	s := &scratch{}
	for head := 0; head < len(e.front); head++ {
		if e.opts.Interrupt != nil && head%interruptCheckInterval == 0 {
			if err := e.opts.Interrupt(); err != nil {
				return err
			}
		}
		w := e.front[head]
		e.front[head] = nil

		for a := 0; a < ss.NumPhils; a++ {
			pid := graph.PhilID(a)
			// Outcomes must not mutate the world they are computed from, so
			// the shared frontier world can be probed directly; each outcome
			// is then applied to its own clone.
			outcomes := ss.prog.Outcomes(w, pid, s.obuf[:0])
			s.obuf = outcomes
			// An offset past the int32 range makes seal fail, so a
			// truncated one is never read.
			ss.off = push(ss.off, int32(len(ss.succs)))
			for i := range outcomes {
				succ, err := e.successor(s, w, pid, outcomes, i)
				if err != nil {
					return err
				}
				// Probing a seen state allocates nothing; a new state's key
				// is copied into the shard's arena.
				sid, added, err := e.internState(hashKey(s.keyBuf), s.keyBuf, succ)
				if err != nil {
					return err
				}
				if added {
					e.front = push(e.front, succ)
				} else {
					s.putFree(succ)
				}
				ss.succs = push(ss.succs, sid)
				ss.probs = push(ss.probs, outcomes[i].Prob)
			}
		}
		ss.expanded[head] = true
		s.putFree(w)
		if ss.NumStates() > e.opts.MaxStates {
			ss.Truncated = true
			return nil
		}
	}
	return nil
}

// exploreSharded runs the BFS level by level through the four phases
// described in the package comment. Every phase is parallel — over chunks
// (expand, gather, rows) or over shards (intern) — and every write target is
// owned by exactly one goroutine, so the only synchronization is the barrier
// between phases. A level that could pass the state cap is first cut to the
// prefix the sequential exploration expands (cutLevel); the prefix runs the
// same four phases, and the exploration ends with it.
func (e *explorer) exploreSharded(workers int) error {
	ss := e.ss
	// A level runs min(workers, level size) chunks; scratches are created
	// as levels first need them, so the per-worker memory follows the work,
	// not the requested worker count.
	var scratches []*scratch
	shardScr := make([]*shardScratch, len(ss.shards))
	for g := range shardScr {
		shardScr[g] = &shardScratch{}
	}
	var chunkLo, chunkBase, chunkOut []int
	var wg sync.WaitGroup

	for len(e.front) > 0 {
		if e.opts.Interrupt != nil {
			if err := e.opts.Interrupt(); err != nil {
				return err
			}
		}

		// Phase 1: expand disjoint chunks of the level in parallel.
		n := len(e.front)
		chunk := (n + workers - 1) / workers
		active := 0
		chunkLo = chunkLo[:0]
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			if active == len(scratches) {
				scratches = append(scratches, &scratch{})
			}
			s := scratches[active]
			chunkLo = append(chunkLo, lo)
			active++
			wg.Add(1)
			go func(s *scratch, worlds []*sim.World) {
				defer wg.Done()
				e.expandChunk(s, worlds)
			}(s, e.front[lo:hi])
		}
		wg.Wait()
		// The first error in chunk order keeps error reporting deterministic
		// (each chunk's contents are deterministic, so so is its error).
		for _, s := range scratches[:active] {
			if s.err != nil {
				return s.err
			}
		}

		// The pending total over-counts cross-chunk duplicates, so a level
		// it puts past the cap may still fit; cutLevel decides exactly.
		totalPending := 0
		for _, s := range scratches[:active] {
			totalPending += len(s.pend)
		}
		d0 := ss.NumStates()
		cut := false
		if d0+totalPending > e.opts.MaxStates {
			active, cut = e.cutLevel(scratches[:active], d0)
		}

		// Phase 2: intern pending states, one goroutine per shard.
		for g := range ss.shards {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				e.internShard(uint32(g), shardScr[g], scratches[:active])
			}(g)
		}
		wg.Wait()
		for _, sc := range shardScr {
			if sc.err != nil {
				return sc.err
			}
		}

		// Dense-id bases: chunk ci's creations become dense ids
		// d0+chunkBase[ci].. in pending order — the global first-encounter
		// order, which is exactly the sequential discovery order.
		chunkBase = chunkBase[:0]
		totalCreated := 0
		for ci := 0; ci < active; ci++ {
			chunkBase = append(chunkBase, totalCreated)
			for _, sc := range shardScr {
				totalCreated += int(sc.newPerChunk[ci])
			}
		}
		ss.bad = grown(ss.bad, totalCreated)
		ss.anyEating = grown(ss.anyEating, totalCreated)
		ss.expanded = grown(ss.expanded, totalCreated)
		if ss.NumPhils <= maskablePhils {
			ss.eating = grown(ss.eating, totalCreated)
		}
		e.nextFront = grown(e.nextFront[:0], totalCreated)

		// Phase 3: assign dense ids, record labels and build the next
		// frontier, one goroutine per chunk (disjoint dense-id ranges).
		for ci := 0; ci < active; ci++ {
			wg.Add(1)
			go func(s *scratch, base int) {
				defer wg.Done()
				e.gatherChunk(s, d0, base)
			}(scratches[ci], chunkBase[ci])
		}
		wg.Wait()

		// Phase 4: write the level's rows into one exactly sized block, one
		// goroutine per chunk (disjoint ranges of the block).
		rows, outs := 0, 0
		chunkOut = chunkOut[:0]
		for _, s := range scratches[:active] {
			chunkOut = append(chunkOut, outs)
			rows += len(s.counts)
			outs += len(s.outs)
		}
		b := rowBlock{off: make([]int32, rows), succs: make([]int32, outs), probs: make([]float64, outs)}
		for ci := 0; ci < active; ci++ {
			wg.Add(1)
			go func(s *scratch, lo, out int) {
				defer wg.Done()
				e.writeRows(s, &b, lo, out)
			}(scratches[ci], chunkLo[ci], chunkOut[ci])
		}
		wg.Wait()
		e.blocks = append(e.blocks, b)
		e.outcomes += outs

		if cut {
			// The rest of the level stays unexpanded; its states and the
			// ones the prefix discovered get the seal's self-loops.
			ss.Truncated = true
			return nil
		}
		e.front, e.nextFront = e.nextFront, e.front[:0]
		e.levelStart = d0
	}
	return nil
}

// cutLevel truncates the level's chunk records after the frontier entry at
// which the sequential exploration stops (see the package comment), given
// the d0 states known before the level, and drops every later chunk. A
// pending counts when the throwaway table first sees its key, exactly when
// the intern phase would create it. It returns the number of chunks kept and
// whether the level was cut; a level whose creations stay within the cap is
// left whole.
func (e *explorer) cutLevel(scratches []*scratch, d0 int) (active int, cut bool) {
	np := e.ss.NumPhils
	var seen internTable
	count := d0
	for ci, s := range scratches {
		oi, pi := 0, 0
		for k := 0; k < len(s.counts)/np; k++ {
			for _, c := range s.counts[k*np : (k+1)*np] {
				for _, o := range s.outs[oi : oi+int(c)] {
					// Pendings are numbered in first-encounter order, so
					// pending pi is first met by the outcome naming it next.
					if o.ref != ^int32(pi) {
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
	return len(scratches), false
}

// expandChunk computes the record of one contiguous chunk of the current
// level. It only reads shared state (the shard intern tables, the program,
// the frontier worlds of its own chunk) and writes the worker-local scratch.
func (e *explorer) expandChunk(s *scratch, worlds []*sim.World) {
	ss := e.ss
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
				s.outs = push(s.outs, outRef{prob: outcomes[i].Prob, ref: ref})
			}
		}
		s.putFree(w) // the frontier world is fully expanded
	}
}

// internShard interns, into shard g, every pending state hashing to g, in
// (chunk, first-encounter) order — the restriction of the sequential
// discovery order to this shard, so shard-local numbering is deterministic
// for every worker count. Dense ids are left to the gather phase; every
// pending entry owned by g receives its state's packed id.
func (e *explorer) internShard(g uint32, sc *shardScratch, scratches []*scratch) {
	ss := e.ss
	st := &ss.shards[g]
	sc.newPerChunk = grown(sc.newPerChunk[:0], len(scratches))
	sc.err = nil
	for ci, s := range scratches {
		created := int32(0)
		for li := range s.pend {
			p := &s.pend[li]
			if ss.shardOfHash(p.hash) != g {
				continue
			}
			local, added := st.table.intern(p.hash, s.local.key(int32(li)))
			p.packed = int32(g)<<localBits | local
			if !added {
				continue
			}
			if local > localMask {
				sc.err = errShardOverflow(g)
				return
			}
			st.dense = push(st.dense, -1) // assigned in the gather phase
			p.created = true
			created++
		}
		sc.newPerChunk[ci] = created
	}
}

// gatherChunk walks one chunk's pendings in first-encounter order and, for
// each entry that created its state, assigns the next dense id, records the
// state labels and frontier entry, and completes the shard's local→dense
// map. Entries that lost the intern race to an earlier chunk recycle their
// worlds. Chunks write disjoint dense-id ranges, so the phase is parallel.
func (e *explorer) gatherChunk(s *scratch, d0, base int) {
	ss := e.ss
	d := d0 + base
	nf := e.nextFront[base:]
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
		bad, eat, mask := e.stateFlags(w)
		ss.bad[d] = bad
		ss.anyEating[d] = eat
		if ss.eating != nil {
			ss.eating[d] = mask
		}
		nf[j] = w
		j++
		d++
	}
}

// writeRows writes the rows of chunk s into the level's block b: the chunk's
// states start at frontier index lo and their outcomes at index out of the
// block. Pending successor references resolve through the intern results.
// Chunks write disjoint ranges of the block, so the phase is parallel.
func (e *explorer) writeRows(s *scratch, b *rowBlock, lo, out int) {
	ss := e.ss
	// An offset past the int32 range makes seal fail, so a truncated one is
	// never read.
	off := int32(e.outcomes + out)
	for k, c := range s.counts {
		b.off[lo*ss.NumPhils+k] = off
		off += c
	}
	for i, o := range s.outs {
		sid := o.ref
		if sid < 0 {
			packed := s.pend[^sid].packed
			sid = ss.shards[packed>>localBits].dense[packed&localMask]
		}
		b.succs[out+i] = sid
		b.probs[out+i] = o.prob
	}
	for k := range len(s.counts) / ss.NumPhils {
		ss.expanded[e.levelStart+lo+k] = true
	}
}
