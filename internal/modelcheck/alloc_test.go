package modelcheck

import (
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphalg"
)

// TestAnalysesAllocBudget asserts that every graphalg analysis performs zero
// per-state heap allocations on a warm predecessor index: the index is built
// once, each analysis runs once to warm the scratch pool, and the measured
// allocations per run must then not scale with the state count — only the
// O(1) result slices and pool bookkeeping remain. This subsumes the old
// SCC successor-enumeration complaint (one slice per visited state) and
// guards the worklist layer against regressing into per-state garbage.
func TestAnalysesAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under the race detector, so allocation counts are meaningless")
	}
	// 0.02 allocs/state on the smallest instance (376 states) allows ~7
	// allocations per analysis — result slices, pool Get bookkeeping, the
	// Tarjan closure — while any per-state allocation blows the budget.
	const maxAllocsPerState = 0.02
	for _, tc := range []struct {
		topo *graph.Topology
		alg  string
	}{
		{graph.Theorem2Minimal(), "LR1"},
		{graph.Theorem1Minimal(), "LR1"},
		{graph.Theorem2Minimal(), "LR2"},
	} {
		prog, err := algo.New(tc.alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Explore(tc.topo, prog, Options{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		ix := ss.PredecessorIndex()
		states := float64(ss.NumStates())
		for _, an := range []struct {
			name string
			run  func()
		}{
			{"DeadlockStates", func() { ix.DeadlockStates() }},
			{"DeadRegionStates", func() { ix.DeadRegionStates(ss.Bad) }},
			{"MaximalTrap", func() { ix.MaximalTrap(ss.Bad) }},
		} {
			an.run() // warm the scratch pool
			allocs := testing.AllocsPerRun(5, an.run)
			perState := allocs / states
			t.Logf("%s on %s: %s: %.1f allocs over %.0f states (%.4f allocs/state)",
				tc.alg, tc.topo.Name(), an.name, allocs, states, perState)
			if perState > maxAllocsPerState {
				t.Errorf("%s on %s: %s allocates %.4f per state, over the %.2f budget — a per-state allocation crept back in",
					tc.alg, tc.topo.Name(), an.name, perState, maxAllocsPerState)
			}
		}
	}
}

// TestExploreAllocsPerState is the allocation-regression guard for
// exploration. The intern store (key bytes in a chunked arena, no per-state
// key copy), the pending keys of a chunk sharing one reused buffer and the
// frontier world free-list (revisit clones and expanded frontier worlds
// recycle their backing slices) brought Explore from ~6 allocations per
// state down to under 2. The one-worker rows run every phase inline over
// one chunk and one shard, so they pay one chunk record, one local intern
// table and one row block per BFS level on their small instances; the
// two-worker rows pin the goroutine phases on larger ones. A refactor that
// reintroduces per-state copies shows up immediately.
func TestExploreAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	for _, tc := range []struct {
		topo              *graph.Topology
		alg               string
		workers, shards   int
		maxAllocsPerState float64
	}{
		{graph.Ring(3), "LR1", 1, 1, 2.5},
		{graph.Theorem2Minimal(), "LR1", 1, 1, 2.5},
		{graph.Theorem2Minimal(), "GDP1", 1, 1, 2.5},
		{graph.Theorem2Minimal(), "LR2", 2, 2, 1.0},
		{graph.Theorem1Minimal(), "GDP1", 2, 2, 1.0},
	} {
		prog, err := algo.New(tc.alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: tc.workers, Shards: tc.shards}
		ss, err := Explore(tc.topo, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		states := float64(ss.NumStates())
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Explore(tc.topo, prog, opts); err != nil {
				t.Fatal(err)
			}
		})
		perState := allocs / states
		t.Logf("%s on %s (workers %d, shards %d): %.0f states, %.0f allocs, %.2f allocs/state",
			tc.alg, tc.topo.Name(), tc.workers, tc.shards, states, allocs, perState)
		if perState > tc.maxAllocsPerState {
			t.Errorf("%s on %s (workers %d, shards %d): %.2f allocs/state exceeds the %.1f budget",
				tc.alg, tc.topo.Name(), tc.workers, tc.shards, perState, tc.maxAllocsPerState)
		}
	}
}

// TestExploreMemoryFollowsTheWork pins that exploration sizes its
// per-worker memory by the chunks a level actually runs —
// min(workers, level size) — not by the requested worker count: a worker
// count far beyond any level (as an HTTP request may carry) explores the
// same space as two workers at a small multiple of their bytes. Both runs
// use two shards, so only the worker count differs.
func TestExploreMemoryFollowsTheWork(t *testing.T) {
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	explore := func(workers int) (*StateSpace, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ss, err := Explore(graph.Ring(3), prog, Options{Workers: workers, Shards: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return ss, after.TotalAlloc - before.TotalAlloc
	}
	few, fewBytes := explore(2)
	many, manyBytes := explore(1_000_000)
	assertEquivalentSpace(t, "workers 1e6 vs 2", few, many)
	t.Logf("ring-3/LR1: %d bytes at 2 workers, %d at 1e6 (%.2fx)", fewBytes, manyBytes, float64(manyBytes)/float64(fewBytes))
	// One-state chunks each hold a record, a goroutine and their own
	// successor worlds, which measures 2.2-2.4x on this instance; the old
	// per-requested-worker scratch measured over 1000x.
	if manyBytes > 3*fewBytes {
		t.Errorf("1e6 workers allocated %d bytes, over three times the %d of 2 workers", manyBytes, fewBytes)
	}
}

// TestColdCheckBytes pins the bytes of a cold check's layers on
// t1min/GDP1 (64,392 states) at workers 2, shards 2: the exploration per
// state, building the predecessor index per edge, and a first MaximalTrap on
// a fresh index per state (its scratch pool is empty, so it allocates every
// working array). The index reads the space's transition table in place
// and builds only the reverse rows, and the exploration writes that table
// once at its exact size, successors only; the pins were 602 B/state,
// 18.9 B/edge and 71.0 B/state when the index copied the forward rows and
// the explorer kept per-shard rows grown by doubling, and exploration was
// 470 B/state while the table and the chunk records also held every
// outcome's probability.
func TestColdCheckBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation inflates allocation sizes")
	}
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bytesOf := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	var ss *StateSpace
	explore := bytesOf(func() {
		ss, err = Explore(graph.Theorem1Minimal(), prog, Options{Workers: 2, Shards: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	var ix *graphalg.PredecessorIndex
	index := bytesOf(func() { ix = graphalg.NewPredecessorIndex(ss, 2) })
	trap := bytesOf(func() { ix.MaximalTrap(ss.Bad) })
	states, edges := float64(ss.NumStates()), float64(ix.NumEdges())
	for _, pin := range []struct {
		layer string
		got   float64
		limit float64
		per   string
	}{
		{"exploration", explore / states, 420, "state"},
		{"predecessor index", index / edges, 14, "edge"},
		{"first MaximalTrap", trap / states, 58, "state"},
	} {
		t.Logf("%s: %.1f B/%s (limit %.0f)", pin.layer, pin.got, pin.per, pin.limit)
		if pin.got > pin.limit {
			t.Errorf("%s allocates %.1f B per %s, over the %.0f B limit", pin.layer, pin.got, pin.per, pin.limit)
		}
	}
}
