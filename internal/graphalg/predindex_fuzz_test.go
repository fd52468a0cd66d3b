package graphalg

import (
	"reflect"
	"testing"
)

// fuzzMDP decodes an arbitrary byte string into a small MDP: the first bytes
// fix the state and action counts, the rest drive the per-(state, action)
// outcome lists (including empty actions, duplicate successors and
// self-loops — everything the reverse index must represent faithfully).
func fuzzMDP(data []byte) *mdp {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := next()%24 + 1
	nActions := next()%4 + 1
	succs := make([][][]int32, n)
	for s := 0; s < n; s++ {
		succs[s] = make([][]int32, nActions)
		for a := 0; a < nActions; a++ {
			k := next() % 4 // 0..3 outcomes; 0 leaves the action empty
			outs := make([]int32, 0, k)
			for i := 0; i < k; i++ {
				outs = append(outs, int32(next()%n))
			}
			succs[s][a] = outs
		}
	}
	return newMDP(nActions, succs)
}

// edge identifies one edge occurrence for the bijection check.
type edge struct {
	pred, act, succ int32
}

// predEdges returns the incoming edge occurrences of state t: the aligned
// source-state and action slices of its reverse bucket.
func predEdges(ix *PredecessorIndex, t int) (preds, acts []int32) {
	return ix.pred[ix.roff[t]:ix.roff[t+1]], ix.pact[ix.roff[t]:ix.roff[t+1]]
}

// FuzzPredecessorIndex pins the forward/reverse edge-set bijection of the
// index: for any MDP, the multiset of reverse entries equals the multiset of
// forward outcome occurrences, bucket entries appear in forward enumeration
// order, the per-(state, action) successor counts match, and a parallel
// build produces the identical index.
func FuzzPredecessorIndex(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0, 2, 1, 2})
	f.Add([]byte{1, 1, 3, 0, 0, 0})
	f.Add([]byte{5, 4, 2, 4, 4, 0, 1, 2, 3, 9, 9, 9, 2, 0, 0})
	// Ten states: a build at 8 workers rounds its chunk size up to 2 and
	// fills only 5 chunks.
	f.Add([]byte{9, 1, 1, 3, 2, 7, 1, 4, 3, 5, 6, 9, 0, 1, 8, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzMDP(data)
		ix := NewPredecessorIndex(m, 1)

		// Forward multiset and per-(state, action) counts.
		forward := map[edge]int{}
		edges := 0
		for s := 0; s < m.NumStates(); s++ {
			for a := 0; a < m.NumActions(); a++ {
				succs := Succs(m, s, a)
				if o := s*ix.nActions + a; int(ix.foff[o+1]-ix.foff[o]) != len(succs) {
					t.Fatalf("(%d, %d) has %d forward slots, want %d", s, a, ix.foff[o+1]-ix.foff[o], len(succs))
				}
				for _, succ := range succs {
					forward[edge{int32(s), int32(a), succ}]++
					edges++
				}
			}
		}
		if ix.NumEdges() != edges {
			t.Fatalf("NumEdges = %d, want %d", ix.NumEdges(), edges)
		}

		// Reverse multiset, plus the in-bucket ordering contract: entries of
		// one bucket are sorted by (source, action) with ties left in outcome
		// order.
		reverse := map[edge]int{}
		total := 0
		for s := 0; s < m.NumStates(); s++ {
			preds, acts := predEdges(ix, s)
			if len(preds) != len(acts) {
				t.Fatalf("state %d: %d preds vs %d acts", s, len(preds), len(acts))
			}
			for i := range preds {
				reverse[edge{preds[i], acts[i], int32(s)}]++
				total++
				if i > 0 && (preds[i] < preds[i-1] ||
					(preds[i] == preds[i-1] && acts[i] < acts[i-1])) {
					t.Fatalf("state %d: bucket entry %d out of (source, action) order", s, i)
				}
			}
		}
		if total != edges {
			t.Fatalf("reverse index has %d entries, want %d", total, edges)
		}
		if !reflect.DeepEqual(forward, reverse) {
			t.Fatalf("forward/reverse edge multisets differ:\nforward %v\nreverse %v", forward, reverse)
		}

		// A parallel build must produce the identical index.
		for _, workers := range []int{3, 8} {
			ixw := NewPredecessorIndex(m, workers)
			for s := 0; s < m.NumStates(); s++ {
				p1, a1 := predEdges(ix, s)
				pw, aw := predEdges(ixw, s)
				if !reflect.DeepEqual(p1, pw) || !reflect.DeepEqual(a1, aw) {
					t.Fatalf("state %d: the build at %d workers diverged from sequential", s, workers)
				}
			}
		}
	})
}
