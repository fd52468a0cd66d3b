package graphalg

import (
	"runtime"
	"sync"

	"repro/internal/par"
)

// PredecessorIndex is the CSR view of a StateView's transition graph in both
// directions: the view's own forward rows (StateView.Rows), shared rather
// than copied, so the analyses read plain arrays instead of chasing the
// view's storage through an interface, and for every state its incoming
// (predecessor, action) edge occurrences (the reverse CSR). The reverse half
// is built once in O(E) — in parallel over contiguous state chunks — and
// shared by every worklist analysis, which is what turns the package's
// fixpoint sweeps (O(N·E) worst case) into linear-time worklist algorithms:
// backward reachability and dead regions become a reverse BFS, the safety
// game becomes an attractor over per-action flags, and the
// maximal-end-component loop re-checks only the states whose edges were
// removed.
//
// The index stores one entry per outcome occurrence in both directions: if
// action a of state s lists state t twice among its successors, the forward
// row of (s, a) has two t entries and t has two (s, a) reverse entries. That
// multiset correspondence is pinned by FuzzPredecessorIndex.
//
// An index is immutable after construction and safe for concurrent use: the
// analyses draw their mutable state from an internal pool of scratch buffers,
// so independent analyses — the per-philosopher trap checks of the
// lockout-freedom property, for example — run concurrently over one shared
// index with zero per-state heap allocations once the pool is warm.
type PredecessorIndex struct {
	v        StateView
	n        int
	nActions int

	// foff/fsucc are the forward CSR, the view's Rows: the successor
	// occurrences of action a in state s are
	// fsucc[foff[s*nActions+a]:foff[s*nActions+a+1]], in outcome order — so
	// the outcomes of all actions of one state are one contiguous range.
	foff  []int32
	fsucc []int32
	// roff/pred/pact are the reverse CSR: the incoming edge occurrences of
	// state t are pred[roff[t]:roff[t+1]] (source states) and the aligned
	// pact entries (actions). Within a bucket, entries are ordered by
	// (source state, action, outcome index) — the forward enumeration order —
	// for every build worker count.
	roff []int32
	pred []int32
	pact []int32

	// reachOnce/reach cache forward reachability from the initial state:
	// it depends only on the graph, never on a bad-state labelling, so one
	// computation serves every analysis of the index (and every
	// per-philosopher labelling of the lockout fan-out).
	reachOnce sync.Once
	reach     []bool

	pool sync.Pool // *scratch
}

// NewPredecessorIndex builds the index of v over v's own forward rows. The
// reverse build is parallel over contiguous state chunks (workers <= 0 means
// one per CPU, 1 builds inline); the resulting index is identical for every
// worker count.
func NewPredecessorIndex(v StateView, workers int) *PredecessorIndex {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := v.NumStates()
	nActions := v.NumActions()
	foff, fsucc := v.Rows()
	ix := &PredecessorIndex{
		v:        v,
		n:        n,
		nActions: nActions,
		foff:     foff,
		fsucc:    fsucc,
		roff:     make([]int32, n+1),
	}
	ix.pool.New = func() any { return &scratch{} }
	if n == 0 {
		return ix
	}

	// Each chunk carries an n-length cursor array through the build, so the
	// transient scratch is chunks × n; capping the chunk count keeps that
	// bounded on many-core machines (the index itself is O(E)). The final
	// layout is identical for every chunk count — buckets are filled in
	// (chunk, source, action, outcome) order and chunks are contiguous
	// ascending source ranges, so the order is the global forward one.
	// Rounding the chunk size up can leave fewer non-empty chunks than
	// asked for (5 states in 4 chunks of 2 fill only 3), so the count is
	// recomputed from the size: every chunk then starts inside the range.
	const maxBuildChunks = 8
	asked := min(workers, maxBuildChunks)
	chunkSize := (n + asked - 1) / asked
	chunks := (n + chunkSize - 1) / chunkSize
	// Count phase: each chunk counts, into its own in-degree array, the edge
	// occurrences its states emit — one contiguous range of fsucc.
	indeg := make([][]int32, chunks)
	par.Trials(chunks, chunks, func(ci int) (struct{}, error) {
		lo, hi := ci*chunkSize, min((ci+1)*chunkSize, n)
		cnt := make([]int32, n)
		for _, t := range fsucc[foff[lo*nActions]:foff[hi*nActions]] {
			cnt[t]++
		}
		indeg[ci] = cnt
		return struct{}{}, nil
	})

	// Prefix phase: roff becomes the global offsets, and each chunk's count
	// array is transformed in place into its reverse write cursors — bucket
	// t's entries land in (chunk, source, action, outcome) order, which is
	// the global forward enumeration order. The offsets are int32 because
	// the forward ones are: the view's rows bound the edge count.
	var cursor int32
	for t := 0; t < n; t++ {
		ix.roff[t] = cursor
		for ci := 0; ci < chunks; ci++ {
			c := indeg[ci][t]
			indeg[ci][t] = cursor
			cursor += c
		}
	}
	ix.roff[n] = cursor
	ix.pred = make([]int32, cursor)
	ix.pact = make([]int32, cursor)

	// Fill phase: chunks push reverse entries through their private cursors
	// — all slots disjoint.
	par.Trials(chunks, chunks, func(ci int) (struct{}, error) {
		lo, hi := ci*chunkSize, min((ci+1)*chunkSize, n)
		cur := indeg[ci]
		for s := lo; s < hi; s++ {
			for a := 0; a < nActions; a++ {
				o := s*nActions + a
				for _, t := range fsucc[foff[o]:foff[o+1]] {
					slot := cur[t]
					cur[t]++
					ix.pred[slot] = int32(s)
					ix.pact[slot] = int32(a)
				}
			}
		}
		return struct{}{}, nil
	})
	return ix
}

// NumEdges returns the total number of edge occurrences (outcome slots).
func (ix *PredecessorIndex) NumEdges() int { return len(ix.pred) }

// scratch is the reusable per-analysis state. Every analysis draws one from
// the index's pool, sizes the fields it needs and returns it, so concurrent
// analyses over one index never contend and a warm pool serves every analysis
// with zero per-state heap allocations.
type scratch struct {
	// queue is the shared BFS / worklist buffer.
	queue []int32
	// mark is the generic visited / can-reach set.
	mark []bool

	// Safety game and maximal end components: in marks the safe region and
	// then the surviving end-component states, act the retained (state,
	// action) pairs and actCnt the retained actions per state.
	in     []bool
	act    []bool
	actCnt []int32
	// comp labels each state's current component with its least state;
	// dirty is indexed by label: the component needs re-checking.
	comp  []int32
	dirty []bool
	work  []int32
	next  []int32

	// Iterative Tarjan.
	tIndex  []int32
	tLow    []int32
	onStack []bool
	tStack  []int32
	frames  []tframe

	// Step 3 (component coverage), one entry per final component.
	compSize []int32
	compMin  []int32
	covered  []bool
}

// tframe is one suspended DFS call of the iterative Tarjan: the state, its
// current action and the cursor and end of that action's outcomes in fsucc
// — edges are enumerated in place, so no per-visited-state successor slice
// is ever materialized.
type tframe struct {
	s   int32
	a   int32
	oi  int32
	end int32
}

// getScratch pops a scratch from the pool.
func (ix *PredecessorIndex) getScratch() *scratch { return ix.pool.Get().(*scratch) }

// putScratch returns a scratch to the pool.
func (ix *PredecessorIndex) putScratch(sc *scratch) { ix.pool.Put(sc) }

// resized returns s with length n and every element zeroed, reusing the
// backing array when it is large enough — the allocation-free steady state of
// a warm scratch.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// sized returns s with length n WITHOUT clearing retained elements: for
// scratch arrays whose every read is preceded by a write (or that maintain
// an all-false invariant across runs, like the Tarjan on-stack marks), this
// keeps reuse O(1) instead of O(n) — the property that makes an incremental
// MEC round proportional to its dirty set, not the state count. A grown
// array is freshly allocated, hence zeroed.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
