package modelcheck

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/sim"
)

// refSpace is a complete exploration by the reference explorer: a
// breadth-first search over a Go map keyed by the intern key strings that
// expands one state at a time and shares no code with the store.
type refSpace struct {
	keys []string
	bad  []bool
	// rows[s][a] lists the successors of philosopher a's action from state
	// s, in outcome order.
	rows [][][]int32
	// after[s] is the number of states discovered once state s is expanded.
	after []int
}

// exploreReference explores prog on topo from its initial world, keying
// states by their orbit-canonical encoding when canon is set. Every
// philosopher is protected.
func exploreReference(topo *graph.Topology, prog sim.Program, canon *graph.OrbitCanonicalizer) *refSpace {
	key := func(w *sim.World) string {
		if canon != nil {
			return string(w.AppendCanonicalKey(canon, nil))
		}
		return string(w.AppendKey(nil))
	}
	ref := &refSpace{}
	ids := map[string]int32{}
	var queue []*sim.World
	visit := func(w *sim.World) int32 {
		k := key(w)
		if id, ok := ids[k]; ok {
			return id
		}
		id := int32(len(queue))
		ids[k] = id
		queue = append(queue, w)
		ref.keys = append(ref.keys, k)
		bad := false
		for _, p := range w.Phils {
			bad = bad || p.Phase == sim.Eating
		}
		ref.bad = append(ref.bad, bad)
		return id
	}
	w0 := sim.NewWorld(topo)
	prog.Init(w0)
	visit(w0)
	for s := 0; s < len(queue); s++ {
		w := queue[s]
		row := make([][]int32, topo.NumPhilosophers())
		for a := range row {
			pid := graph.PhilID(a)
			for i := range prog.Outcomes(w, pid, nil) {
				succ := w.Clone()
				prog.Outcomes(succ, pid, nil)[i].Do(succ, pid)
				succ.Step++
				row[a] = append(row[a], visit(succ))
			}
		}
		ref.rows = append(ref.rows, row)
		ref.after = append(ref.after, len(queue))
	}
	return ref
}

// capped returns the reference's prefix under a state cap: the number of
// states kept and the last state expanded — the first whose expansion takes
// the count past maxStates — with truncated reporting whether the cap cut
// the exploration short.
func (ref *refSpace) capped(maxStates int) (kept, lastExpanded int, truncated bool) {
	for s, n := range ref.after {
		if n > maxStates {
			return n, s, true
		}
	}
	return len(ref.keys), len(ref.keys) - 1, false
}

// assertMatchesReference checks a capped exploration against the
// reference's prefix: state count, truncation, keys, labels, expanded flags
// and rows (an unexpanded state keeps one self-loop per action), that every
// kept key is interned under its dense id, and the shard layout.
func assertMatchesReference(t *testing.T, label string, ref *refSpace, maxStates int, ss *StateSpace) {
	t.Helper()
	kept, last, truncated := ref.capped(maxStates)
	if ss.NumStates() != kept || ss.Truncated != truncated {
		t.Fatalf("%s: %d states, truncated %v; the reference keeps %d, truncated %v",
			label, ss.NumStates(), ss.Truncated, kept, truncated)
	}
	keys := denseKeys(ss)
	for s := 0; s < kept; s++ {
		if keys[s] != ref.keys[s] {
			t.Fatalf("%s: state %d has another key than the reference's state %d", label, s, s)
		}
		if got := ss.denseOf([]byte(ref.keys[s])); got != int32(s) {
			t.Fatalf("%s: the key of state %d is interned as %d", label, s, got)
		}
		if ss.bad[s] != ref.bad[s] {
			t.Fatalf("%s: state %d bad = %v, reference %v", label, s, ss.bad[s], ref.bad[s])
		}
		expanded := s <= last
		if ss.expanded[s] != expanded {
			t.Fatalf("%s: state %d expanded = %v, want %v", label, s, ss.expanded[s], expanded)
		}
		for a := 0; a < ss.NumPhils; a++ {
			want := []int32{int32(s)}
			if expanded {
				want = ref.rows[s][a]
			}
			if got := graphalg.Succs(ss, s, a); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: row (state %d, phil %d) = %v, reference %v", label, s, a, got, want)
			}
		}
	}
	assertShardLayout(t, label, ss)
}

// TestExplorationMatchesReference pins the explorer, capped or not, against
// the reference explorer for every state cap from 1 to one past the state
// count: a capped exploration must hold exactly the reference's prefix up to
// the first state whose expansion passes the cap, at every (workers, shards)
// configuration, from one worker and one shard, where every phase runs
// inline, to eight shards. It is the independent oracle for every algorithm
// family: free choice (LR1), nr draws (GDP1, GDP2), request lists and guest
// books (LR2, GDP2), a deadlocking baseline (naive-left-first) and globals
// (central-monitor). Under -short only theta/LR1 runs every cap; theta/GDP1
// and the fault and symmetry instances keep the small caps and a stride. The
// four instances marked firstCaps run only the caps 1-40 and uncapped, in
// both modes.
func TestExplorationMatchesReference(t *testing.T) {
	t.Parallel()
	lr1 := mustProg(t, "LR1", algo.Options{})
	crash, err := fault.NewFromSpec("crash-rejoin:0.1,0.5")
	if err != nil {
		t.Fatal(err)
	}
	theta, ring3, ring4 := graph.Theorem2Minimal(), graph.Ring(3), graph.Ring(4)
	for _, in := range []struct {
		name      string
		topo      *graph.Topology
		prog      sim.Program
		symmetry  bool
		everyCap  bool // under -short too
		firstCaps bool // only caps 1-40 and uncapped
	}{
		{"theta/LR1", theta, lr1, false, true, false},
		{"theta/GDP1", theta, mustProg(t, "GDP1", algo.Options{}), false, false, false},
		{"ring-3/LR1/crash-rejoin", ring3, crash.Wrap(ring3, lr1), false, false, false},
		{"ring-4/LR1/symmetry", ring4, lr1, true, false, false},
		{"theta/LR2", theta, mustProg(t, "LR2", algo.Options{}), false, false, true},
		{"theta/GDP2", theta, mustProg(t, "GDP2", algo.Options{}), false, false, true},
		{"ring-3/naive-left-first", ring3, mustProg(t, "naive-left-first", algo.Options{}), false, false, true},
		{"ring-3/central-monitor", ring3, mustProg(t, "central-monitor", algo.Options{}), false, false, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			var canon *graph.OrbitCanonicalizer
			if in.symmetry {
				canon = mustCanon(t, in.topo, graph.CanonOptions{})
			}
			ref := exploreReference(in.topo, in.prog, canon)
			n := len(ref.keys)
			stride := 1
			if testing.Short() && !in.everyCap {
				stride = 61
			}
			for maxStates := 1; maxStates <= n+1; maxStates++ {
				if maxStates > 40 && maxStates < n && (in.firstCaps || maxStates%stride != 0) {
					continue
				}
				for _, cfg := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 4}, {5, 8}} {
					ss, err := Explore(in.topo, in.prog, Options{
						MaxStates: maxStates, Workers: cfg[0], Shards: cfg[1], Symmetry: canon,
					})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("cap %d, workers %d, shards %d", maxStates, cfg[0], cfg[1])
					assertMatchesReference(t, label, ref, maxStates, ss)
				}
			}
		})
	}
}
