package modelcheck

import (
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/graphalg"
)

// TestExplorationGolden pins the exact exploration results (state counts,
// transition counts, bad/deadlock/dead-region counts, safe-region sizes and
// trap sizes) of the instances the experiment suite model-checks. The values
// were captured from the original fmt-keyed, per-fork-slice implementation;
// the binary AppendKey encoder, the flattened World layout, the
// protocol-only cloning of Explore and the sharded state stores must keep
// every one of them byte-identical — a refactor that merges or splits states
// shows up here immediately.
//
// Larger instances (ring-3 GDP2, theorem1-minimal GDP1) are skipped in -short
// mode; the small ones still cover every algorithm and key feature (guest
// books, request lists, nr fields, globals, aux registers).
func TestExplorationGolden(t *testing.T) {
	t.Parallel()
	type want struct {
		states, trans, bad, deadlock, dead, safe, trapStates int
		trapExists                                           bool
	}
	type inst struct {
		topo      *graph.Topology
		algorithm string
		opts      algo.Options
		protected []graph.PhilID
		big       bool
		want      want
	}
	ring3 := []graph.PhilID{0, 1, 2}
	instances := []inst{
		{graph.Theorem1Minimal(), "LR1", algo.Options{}, ring3, false,
			want{2736, 10944, 1280, 0, 0, 1456, 462, true}},
		{graph.Theorem1Minimal(), "LR1", algo.Options{}, nil, false,
			want{2736, 10944, 1664, 0, 0, 1072, 134, true}},
		{graph.Theorem1Minimal(), "GDP1", algo.Options{}, nil, true,
			want{64392, 257568, 28728, 0, 0, 35664, 0, false}},
		{graph.RingWithPendant(3), "LR1", algo.Options{}, ring3, false,
			want{3450, 13800, 1760, 0, 0, 1690, 350, true}},
		{graph.Ring(3), "LR1", algo.Options{}, nil, false,
			want{486, 1458, 288, 0, 0, 198, 0, false}},
		{graph.Ring(3), "LR1", algo.Options{}, []graph.PhilID{0}, false,
			want{486, 1458, 96, 0, 0, 390, 315, true}},
		{graph.Ring(3), "LR2", algo.Options{}, []graph.PhilID{0}, false,
			want{16282, 48846, 3710, 0, 0, 12572, 0, false}},
		{graph.Ring(3), "GDP2", algo.Options{}, []graph.PhilID{0}, true,
			want{182951, 548853, 34992, 0, 0, 147959, 392, true}},
		{graph.Ring(3), "GDP2", algo.Options{CourtesyOnBothForks: true}, []graph.PhilID{0}, true,
			want{180359, 541077, 34128, 0, 0, 146231, 0, false}},
		{graph.Theorem2Minimal(), "LR1", algo.Options{}, nil, false,
			want{376, 1128, 192, 0, 0, 184, 48, true}},
		{graph.Theorem2Minimal(), "LR2", algo.Options{}, nil, false,
			want{12830, 38490, 7950, 0, 0, 4880, 48, true}},
		{graph.Theorem2Minimal(), "GDP1", algo.Options{}, nil, false,
			want{324, 972, 108, 0, 0, 216, 0, false}},
		{graph.Theorem2Minimal(), "GDP2", algo.Options{}, nil, false,
			want{10096, 30288, 5088, 0, 0, 5008, 0, false}},
		{graph.Theorem2Minimal(), "GDP1", algo.Options{}, []graph.PhilID{0}, false,
			want{324, 972, 36, 0, 0, 288, 33, true}},
		{graph.Theorem2Minimal(), "GDP2", algo.Options{}, []graph.PhilID{0}, false,
			want{10096, 30288, 1696, 0, 0, 8400, 0, false}},
		{graph.Ring(3), "naive-left-first", algo.Options{}, nil, false,
			want{135, 405, 72, 1, 1, 63, 1, true}},
		{graph.Ring(3), "colored", algo.Options{}, nil, false,
			want{126, 378, 70, 0, 0, 56, 0, false}},
		{graph.Ring(3), "ordered-forks", algo.Options{}, nil, false,
			want{126, 378, 70, 0, 0, 56, 0, false}},
		{graph.Ring(3), "ticket-box", algo.Options{}, nil, false,
			want{176, 528, 84, 0, 0, 92, 0, false}},
		{graph.Ring(3), "central-monitor", algo.Options{}, nil, false,
			want{68, 204, 48, 0, 0, 20, 0, false}},
	}
	for _, in := range instances {
		if testing.Short() && in.big {
			continue
		}
		prog, err := algo.New(in.algorithm, in.opts)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := Explore(in.topo, prog, Options{Protected: in.protected})
		if err != nil {
			t.Fatal(err)
		}
		trap := ss.FindStarvationTrap()
		got := want{ss.NumStates(), ss.NumTransitions(), numBadStates(ss), len(ss.DeadlockStates()),
			len(ss.DeadRegionStates()), trap.SafeRegionStates, trap.States, trap.Exists}
		if got != in.want {
			t.Errorf("%s on %s (protected %v, opts %+v):\n got  %+v\n want %+v",
				in.algorithm, in.topo.Name(), in.protected, in.opts, got, in.want)
		}
	}
}

// numBadStates counts the states in which a protected philosopher eats.
func numBadStates(ss *StateSpace) int {
	n := 0
	for _, b := range ss.bad {
		if b {
			n++
		}
	}
	return n
}

// assertSameSpace compares two single-shard explorations field by field:
// state numbering, the transition table, labels, masks and keys must all be
// identical, whatever the worker count.
func assertSameSpace(t *testing.T, label string, a, b *StateSpace) {
	t.Helper()
	if len(a.shards) != 1 || len(b.shards) != 1 {
		t.Fatalf("%s: assertSameSpace wants single-shard spaces, got %d and %d shards", label, len(a.shards), len(b.shards))
	}
	if a.NumStates() != b.NumStates() || a.initial != b.initial || a.Truncated != b.Truncated {
		t.Fatalf("%s: shape differs: %d vs %d states, initial %d vs %d, truncated %v vs %v",
			label, a.NumStates(), b.NumStates(), a.initial, b.initial, a.Truncated, b.Truncated)
	}
	for name, pair := range map[string][2]any{
		"off":       {a.off, b.off},
		"succs":     {a.succs, b.succs},
		"dense":     {a.shards[0].dense, b.shards[0].dense},
		"keys":      {denseKeys(a), denseKeys(b)},
		"bad":       {a.bad, b.bad},
		"anyEating": {a.anyEating, b.anyEating},
		"eating":    {a.eating, b.eating},
		"expanded":  {a.expanded, b.expanded},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s differs between worker counts", label, name)
		}
	}
}

// denseKeys returns the intern key of every state in dense order, read from
// the shard arenas through the shards' local-to-dense maps.
func denseKeys(ss *StateSpace) []string {
	keys := make([]string, ss.NumStates())
	for g := range ss.shards {
		st := &ss.shards[g]
		for l, d := range st.dense {
			keys[d] = string(st.table.key(int32(l)))
		}
	}
	return keys
}

// assertEquivalentSpace verifies that a sharded exploration is the
// one-shard space seq under the shard-id remap. The dense view — state
// numbering, labels, transition rows, keys — must be identical outright
// (dense ids are assigned in breadth-first discovery order for every worker
// and shard count), and the shard layout must be a consistent bijection (see
// assertShardLayout).
func assertEquivalentSpace(t *testing.T, label string, seq, sh *StateSpace) {
	t.Helper()
	if seq.NumStates() != sh.NumStates() || seq.initial != sh.initial || seq.Truncated != sh.Truncated {
		t.Fatalf("%s: shape differs: %d vs %d states, initial %d vs %d, truncated %v vs %v",
			label, seq.NumStates(), sh.NumStates(), seq.initial, sh.initial, seq.Truncated, sh.Truncated)
	}
	assertShardLayout(t, label, sh)
	seqKeys, shKeys := denseKeys(seq), denseKeys(sh)
	n := seq.NumStates()
	for s := 0; s < n; s++ {
		if seqKeys[s] != shKeys[s] {
			t.Fatalf("%s: state %d has different canonical keys — the dense numbering diverged", label, s)
		}
		if seq.bad[s] != sh.bad[s] || seq.anyEating[s] != sh.anyEating[s] || seq.expanded[s] != sh.expanded[s] {
			t.Fatalf("%s: state %d labels differ", label, s)
		}
		if seq.eating != nil && seq.eating[s] != sh.eating[s] {
			t.Fatalf("%s: state %d eating mask differs", label, s)
		}
		for a := 0; a < seq.NumPhils; a++ {
			if !reflect.DeepEqual(graphalg.Succs(seq, s, a), graphalg.Succs(sh, s, a)) {
				t.Fatalf("%s: successors of (state %d, phil %d) differ: %v vs %v",
					label, s, a, graphalg.Succs(seq, s, a), graphalg.Succs(sh, s, a))
			}
		}
	}
}

// assertShardLayout checks that a space's shard layout is a consistent
// bijection onto its dense numbering and that its transition table has one
// row per (state, philosopher) and no spare capacity: every state's key
// hashes to its owning shard, the shards' local-to-dense maps hit every
// dense id exactly once, and every key is found again under its dense id.
func assertShardLayout(t *testing.T, label string, sh *StateSpace) {
	t.Helper()
	n := sh.NumStates()
	if len(sh.off) != n*sh.NumPhils+1 || int(sh.off[len(sh.off)-1]) != len(sh.succs) {
		t.Fatalf("%s: transition table has %d offsets (last %d) and %d successors for %d states of %d philosophers",
			label, len(sh.off), sh.off[len(sh.off)-1], len(sh.succs), n, sh.NumPhils)
	}
	if cap(sh.off) != len(sh.off) || cap(sh.succs) != len(sh.succs) {
		t.Fatalf("%s: transition table keeps capacity %d for %d offsets and %d for %d successors, want its exact size",
			label, cap(sh.off), len(sh.off), cap(sh.succs), len(sh.succs))
	}
	seen := make([]bool, n)
	for g := range sh.shards {
		st := &sh.shards[g]
		for l, d := range st.dense {
			if d < 0 || int(d) >= n || seen[d] {
				t.Fatalf("%s: shard %d maps local %d to dense id %d, out of range or taken", label, g, l, d)
			}
			seen[d] = true
			key := st.table.key(int32(l))
			if sh.shardOf(key) != uint32(g) {
				t.Fatalf("%s: state (shard %d, local %d) has a key hashing to shard %d",
					label, g, l, sh.shardOf(key))
			}
			if got := sh.denseOf(key); got != d {
				t.Fatalf("%s: the key of state %d is found as %d", label, d, got)
			}
		}
	}
	for d, ok := range seen {
		if !ok {
			t.Fatalf("%s: no shard holds dense id %d", label, d)
		}
	}
}

// TestExplorationParallelMatchesSequential pins the strongest form of the
// determinism contract on a single shard: for every worker count the
// explored space is byte-identical to the one-worker exploration, whose
// phases all run inline — same state numbering, same flat transition
// arrays, same keys. It covers every algorithm family (free choice, request
// lists + guest books, nr draws, globals) and a truncated exploration, whose
// stop point must also agree. The one-worker space is itself checked against
// an independent search in TestExplorationMatchesReference.
func TestExplorationParallelMatchesSequential(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"LR1", "LR2", "GDP1", "GDP2", "naive-left-first", "central-monitor"} {
		prog, err := algo.New(alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Explore(graph.Theorem2Minimal(), prog, Options{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7} {
			par, err := Explore(graph.Theorem2Minimal(), prog, Options{Workers: workers, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertSameSpace(t, alg, seq, par)
		}
	}

	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Explore(graph.Ring(4), prog, Options{Workers: 1, Shards: 1, MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(graph.Ring(4), prog, Options{Workers: 5, Shards: 1, MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Truncated || !par.Truncated {
		t.Fatal("MaxStates 50 on Ring(4) should truncate at any worker count")
	}
	assertSameSpace(t, "truncated LR1", seq, par)
}

// TestExplorationShardedEquivalentToSequential pins the sharded-store
// contract: for every (workers, shards) combination the explored space is
// the one-worker, one-shard space under the shard-id remap — identical dense
// view (numbering, rows, labels, keys) plus a consistent shard layout. The
// grid covers every algorithm family; a truncated run must stop at the
// one-worker stop point too. TestExplorationMatchesReference checks the
// same families against a search that shares no code with the explorer.
func TestExplorationShardedEquivalentToSequential(t *testing.T) {
	t.Parallel()
	for _, alg := range []string{"LR1", "LR2", "GDP1", "GDP2", "naive-left-first", "central-monitor"} {
		prog, err := algo.New(alg, algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Explore(graph.Theorem2Minimal(), prog, Options{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []struct{ workers, shards int }{
			{1, 2}, {1, 8}, {2, 2}, {3, 4}, {7, 8}, {4, 64},
		} {
			sh, err := Explore(graph.Theorem2Minimal(), prog, Options{
				Workers: cfg.workers, Shards: cfg.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := resolveShards(cfg.shards, cfg.workers); len(sh.shards) != want {
				t.Fatalf("%s: shard count = %d, want %d", alg, len(sh.shards), want)
			}
			label := alg
			assertEquivalentSpace(t, label, seq, sh)
		}
	}

	// Truncated runs: the sharded exploration must stop at the exact state
	// the one-worker exploration stops at, for every (workers, shards) pair.
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxStates := range []int{50, 500} {
		seq, err := Explore(graph.Ring(4), prog, Options{Workers: 1, Shards: 1, MaxStates: maxStates})
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Truncated {
			t.Fatalf("MaxStates %d on Ring(4) should truncate", maxStates)
		}
		for _, cfg := range []struct{ workers, shards int }{
			{1, 4}, {3, 2}, {5, 8},
		} {
			sh, err := Explore(graph.Ring(4), prog, Options{
				Workers: cfg.workers, Shards: cfg.shards, MaxStates: maxStates,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalentSpace(t, "truncated LR1", seq, sh)
		}
	}
}

// TestExplorationShardsDefaultAndValidation pins the Shards normalization:
// negative values error, zero matches the worker count, and everything is
// rounded up to a power of two capped at MaxShards.
func TestExplorationShardsDefaultAndValidation(t *testing.T) {
	t.Parallel()
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(graph.Ring(3), prog, Options{Shards: -1}); err == nil {
		t.Error("Explore accepted negative Shards")
	}
	for _, tc := range []struct{ workers, shards, want int }{
		{1, 0, 1},
		{3, 0, 4},
		{2, 3, 4},
		{1, 1000, MaxShards},
	} {
		ss, err := Explore(graph.Ring(3), prog, Options{Workers: tc.workers, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		if len(ss.shards) != tc.want {
			t.Errorf("workers %d, shards %d: shard count = %d, want %d",
				tc.workers, tc.shards, len(ss.shards), tc.want)
		}
	}
}
