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
// # Sharded storage
//
// The explored MDP is stored in 2^k independently-owned shards (Options.
// Shards). Each shard holds its own intern table (canonical key → local id),
// key arena and flat trans/succs/probs arrays; a state belongs to the shard
// selected by the low bits of a seedless 64-bit hash of its canonical key,
// and its shard-internal address is the packed id shard<<localBits | local.
// The intern table is flat and pointer-free: an open-addressing []uint64 of
// hash tags and local ids over a chunked byte arena of keys (intern.go).
// Each successor key is hashed exactly once; the hash picks the shard and
// feeds every probe. During parallel exploration every shard is written by
// exactly one goroutine, so interning and appending need no locks and no
// single sequential merge.
//
// On top of the shards sits the dense view: states are also numbered
// 0..NumStates-1 in exploration (breadth-first discovery) order, which is
// the numbering every exported method and analysis uses. The dense order is
// identical for every (workers, shards) combination — it equals the
// sequential exploration's numbering — so verdicts, witnesses and
// counterexample traces never depend on how the exploration was
// parallelized; only the internal shard layout does, and the remap test in
// golden_test.go pins the correspondence.
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
//  4. Rows: one goroutine per shard writes the transition rows of the level
//     states it owns, in frontier order, resolving pending references
//     through the intern results.
//
// The sequential path (workers = 1, shards = 1) is the same order executed
// inline with no phases; it stops after the first state whose expansion
// takes the state count past Options.MaxStates. A level that could pass the
// cap is cut at that state before its intern phase: replaying the level's
// pending keys in (chunk, first-encounter) order through a throwaway table
// counts exactly the states the intern phase would create, the records are
// truncated after the first frontier entry whose creations pass the cap, and
// the kept prefix runs the four phases like any other level.
package modelcheck

import (
	"fmt"
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

// transition is one (state, philosopher) action: a window into the owning
// shard's succs/probs backing arrays. Storing offsets instead of per-action
// slices keeps each shard's MDP fragment in three flat allocations instead
// of ~2·NumPhils+1 small ones per state.
type transition struct {
	// off is the offset of the action's first outcome in succs/probs.
	off int32
	// n is the number of outcomes.
	n int32
}

// shardStore is one independently-owned fragment of the explored MDP. All
// per-state arrays are indexed by the shard-local index of the packed id;
// succs holds dense state ids, so reading a transition row never needs a
// cross-shard translation.
type shardStore struct {
	// table dedupes states by canonical key; a key's value is its
	// shard-local index, and the table holds the key bytes. During a
	// parallel expansion phase it is strictly read-only (workers probe it
	// concurrently); all writes happen in the per-shard intern phase between
	// levels.
	table internTable
	// dense maps the shard-local index to the state's dense id.
	dense []int32
	// trans holds NumPhils consecutive transitions per state: the transition
	// of philosopher a from local state l is trans[l*NumPhils+a].
	trans []transition
	// succs and probs are the flat backing arrays shared by every transition
	// of this shard: succs[t.off+i] is the dense id of the state reached by
	// outcome i and probs[t.off+i] its probability.
	succs []int32
	probs []float64
}

// StateSpace is the explored MDP: 2^k shard stores plus the dense
// exploration-order view over them. It implements graphalg.StateView; all
// exported state indices are dense ids.
type StateSpace struct {
	topo *graph.Topology
	prog sim.Program

	// NumPhils is the number of philosophers (actions per state).
	NumPhils int
	// shards are the per-shard stores; len(shards) is a power of two.
	shards []shardStore
	// shardMask is len(shards)-1, the mask applied to the key hash.
	shardMask uint32
	// order maps dense ids to packed ids — the remap between the analysis
	// view and the sharded storage.
	order []int32
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
	// it is a single word because the struct must stay in the 240-byte size
	// class the exploration allocation pins were measured with.
	memo atomic.Pointer[analysisMemo]
}

// NumStates returns the number of distinct states explored.
func (ss *StateSpace) NumStates() int { return len(ss.bad) }

// NumActions returns the number of actions per state (one per philosopher).
// It implements graphalg.StateView.
func (ss *StateSpace) NumActions() int { return ss.NumPhils }

// Initial returns the dense index of the initial state.
func (ss *StateSpace) Initial() int { return ss.initial }

// locate resolves a dense id to its owning shard store and local index.
func (ss *StateSpace) locate(s int) (*shardStore, int32) {
	p := ss.order[s]
	return &ss.shards[p>>localBits], p & localMask
}

// Succs returns the dense ids of the successor states of philosopher a's
// action from dense state s. The returned slice aliases the owning shard's
// backing array and must not be modified. It implements graphalg.StateView.
func (ss *StateSpace) Succs(s, a int) []int32 {
	st, l := ss.locate(s)
	t := st.trans[int(l)*ss.NumPhils+a]
	return st.succs[t.off : t.off+t.n]
}

// Probs returns the outcome probabilities of philosopher a's action from
// dense state s, aligned with Succs. The returned slice aliases the owning
// shard's backing array and must not be modified.
func (ss *StateSpace) Probs(s, a int) []float64 {
	st, l := ss.locate(s)
	t := st.trans[int(l)*ss.NumPhils+a]
	return st.probs[t.off : t.off+t.n]
}

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

// frontEntry is one state of the current BFS level: its world and its packed
// id. The dense id is implicit — the level's states are dense-contiguous, so
// the dense id of front[i] is levelStart+i.
type frontEntry struct {
	w      *sim.World
	packed int32
}

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

	// front holds the current BFS level in discovery order (sequentially: the
	// whole queue, consumed in place); nextFront collects the next level
	// in the gather phase. levelStart is the dense id of front[0].
	front      []frontEntry
	nextFront  []frontEntry
	levelStart int
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
// gets its dense-view entries, with labels from its world w, and added
// reports it; either way the state's packed and dense ids are returned. It
// serves the sequential loop and the initial state; the level loop splits
// the same work between internShard and gatherChunk.
func (e *explorer) internState(h uint64, key []byte, w *sim.World) (packed, dense int32, added bool, err error) {
	ss := e.ss
	g := ss.shardOfHash(h)
	st := &ss.shards[g]
	local, added := st.table.intern(h, key)
	if !added {
		return int32(g)<<localBits | local, st.dense[local], false, nil
	}
	if local > localMask {
		return 0, 0, false, errShardOverflow(g)
	}
	packed = int32(g)<<localBits | local
	dense = int32(len(ss.bad))
	st.dense = push(st.dense, dense)
	st.trans = grown(st.trans, ss.NumPhils)
	ss.order = push(ss.order, packed)
	ss.expanded = push(ss.expanded, false)
	bad, eat, mask := e.stateFlags(w)
	ss.bad = push(ss.bad, bad)
	ss.anyEating = push(ss.anyEating, eat)
	if ss.NumPhils <= maskablePhils {
		ss.eating = push(ss.eating, mask)
	}
	return packed, dense, true, nil
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
	packed0, _, _, err := e.internState(hashKey(key0), key0, w0)
	if err != nil {
		return nil, err
	}
	ss.initial = 0
	e.front = append(e.front, frontEntry{w: w0, packed: packed0})

	if workers == 1 && shards == 1 {
		err = e.exploreSequential()
	} else {
		err = e.exploreSharded(workers)
	}
	if err != nil {
		return nil, err
	}

	// States left unexpanded (zero-width transitions) get self-loops so that
	// the analyses remain well defined on truncated spaces.
	for s := 0; s < ss.NumStates(); s++ {
		if ss.expanded[s] {
			continue
		}
		st, l := ss.locate(s)
		base := int(l) * ss.NumPhils
		for a := 0; a < ss.NumPhils; a++ {
			st.trans[base+a] = transition{off: int32(len(st.succs)), n: 1}
			st.succs = push(st.succs, int32(s))
			st.probs = push(st.probs, 1)
		}
	}
	return ss, nil
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

// exploreSequential runs the BFS inline on a single shard. front doubles as
// the FIFO queue: new states are appended in id order, so the world of state
// id sits at front[id] until the state is expanded. With one shard the
// packed, local and dense ids of a state coincide, which is what makes this
// path free of any translation work.
func (e *explorer) exploreSequential() error {
	ss := e.ss
	st := &ss.shards[0]
	s := &scratch{}
	for head := 0; head < len(e.front); head++ {
		if e.opts.Interrupt != nil && head%interruptCheckInterval == 0 {
			if err := e.opts.Interrupt(); err != nil {
				return err
			}
		}
		w := e.front[head].w
		e.front[head].w = nil
		id := int32(head)

		base := int(id) * ss.NumPhils
		for a := 0; a < ss.NumPhils; a++ {
			pid := graph.PhilID(a)
			// Outcomes must not mutate the world they are computed from, so
			// the shared frontier world can be probed directly; each outcome
			// is then applied to its own clone.
			outcomes := ss.prog.Outcomes(w, pid, s.obuf[:0])
			s.obuf = outcomes
			off := int32(len(st.succs))
			for i := range outcomes {
				succ, err := e.successor(s, w, pid, outcomes, i)
				if err != nil {
					return err
				}
				// Probing a seen state allocates nothing; a new state's key
				// is copied into the shard's arena.
				packed, sid, added, err := e.internState(hashKey(s.keyBuf), s.keyBuf, succ)
				if err != nil {
					return err
				}
				if added {
					e.front = push(e.front, frontEntry{w: succ, packed: packed})
				} else {
					s.putFree(succ)
				}
				st.succs = push(st.succs, sid)
				st.probs = push(st.probs, outcomes[i].Prob)
			}
			st.trans[base+a] = transition{off: off, n: int32(len(outcomes))}
		}
		ss.expanded[id] = true
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
// (expand, gather) or over shards (intern, rows) — and every write target is
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
	var chunkLo, chunkBase []int
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
			go func(s *scratch, entries []frontEntry) {
				defer wg.Done()
				e.expandChunk(s, entries)
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
		ss.order = grown(ss.order, totalCreated)
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

		// Phase 4: write transition rows, one goroutine per shard.
		for g := range ss.shards {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				e.writeRows(uint32(g), scratches[:active], chunkLo)
			}(g)
		}
		wg.Wait()

		if cut {
			// The rest of the level stays unexpanded; its states and the
			// ones the prefix discovered get the post-pass self-loops.
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
func (e *explorer) expandChunk(s *scratch, entries []frontEntry) {
	ss := e.ss
	s.local.reset(len(s.pend), func(v int) uint64 { return s.pend[v].hash })
	s.counts = s.counts[:0]
	s.outs = s.outs[:0]
	s.pend = s.pend[:0]
	s.err = nil
	for k := range entries {
		if e.opts.Interrupt != nil && k%interruptCheckInterval == 0 {
			if err := e.opts.Interrupt(); err != nil {
				s.err = err
				return
			}
		}
		w := entries[k].w
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
			st.trans = grown(st.trans, ss.NumPhils)
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
		ss.order[d] = p.packed
		bad, eat, mask := e.stateFlags(w)
		ss.bad[d] = bad
		ss.anyEating[d] = eat
		if ss.eating != nil {
			ss.eating[d] = mask
		}
		nf[j] = frontEntry{w: w, packed: p.packed}
		j++
		d++
	}
}

// writeRows replays every chunk's record in frontier order and appends the
// transition rows of the level states owned by shard g into g's flat arrays,
// resolving pending successor references through the intern results. Rows
// land in deterministic (frontier, philosopher, outcome) order per shard.
func (e *explorer) writeRows(g uint32, scratches []*scratch, chunkLo []int) {
	ss := e.ss
	st := &ss.shards[g]
	for ci, s := range scratches {
		oi, kk := 0, 0
		nStates := len(s.counts) / ss.NumPhils
		for k := 0; k < nStates; k++ {
			fe := e.front[chunkLo[ci]+k]
			if uint32(fe.packed)>>localBits != g {
				// Skip the state's record: it belongs to another shard.
				for a := 0; a < ss.NumPhils; a++ {
					oi += int(s.counts[kk])
					kk++
				}
				continue
			}
			base := int(fe.packed&localMask) * ss.NumPhils
			for a := 0; a < ss.NumPhils; a++ {
				cnt := s.counts[kk]
				kk++
				off := int32(len(st.succs))
				for _, o := range s.outs[oi : oi+int(cnt)] {
					sid := o.ref
					if sid < 0 {
						packed := s.pend[^sid].packed
						sid = ss.shards[packed>>localBits].dense[packed&localMask]
					}
					st.succs = push(st.succs, sid)
					st.probs = push(st.probs, o.prob)
				}
				oi += int(cnt)
				st.trans[base+a] = transition{off: off, n: cnt}
			}
			ss.expanded[e.levelStart+chunkLo[ci]+k] = true
		}
	}
}
