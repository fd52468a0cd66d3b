package sim_test

// Fuzz harness for the canonical binary state encoding (World.AppendKey),
// which the model checker's sharded intern tables rely on for both
// deduplication and shard placement. The property under test is exactly the
// injectivity contract of the sim package comment: two worlds encode to the
// same key if and only if their observable protocol states are equal —
// identical worlds always collide, worlds differing in any
// philosopher-visible field never do. "Observable" matters for the guest
// books: only the relative signing order of a fork's guest-book entries can
// be read by a program (World.Cond), so the encoder rank-normalizes them,
// and the structural comparison here does too — with an independent
// sort-based rank computation, cross-checking the encoder's quadratic scan.
//
// The fuzzer drives two scripted runs of a real algorithm from the initial
// state (each input byte schedules a philosopher and picks an outcome), so
// every reachable combination of phases, fork selections, request lists,
// guest books, nr fields, aux registers and globals can arise.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// fuzzAlgorithms cover every state feature the key encodes: free choice and
// aux-free states (LR1), request lists + guest books (LR2), nr draws (GDP1,
// GDP2) and shared globals + aux registers (ticket-box).
var fuzzAlgorithms = []string{"LR1", "LR2", "GDP1", "GDP2", "ticket-box"}

// fuzzFaults optionally wraps the algorithm in a fault model (high nibble of
// the pick byte), so the crashed bit of the flags byte and the pending-grant
// key suffix get exercised too: injectivity must keep holding when crash,
// rejoin, grant-lost and in-flight-grant outcomes appear in the transition
// system. The empty entry keeps the original fault-free corpus behaviour for
// picks with a zero high nibble.
var fuzzFaults = []string{"", "crash-rejoin:0.25,0.5", "freeze:0.25", "lossy-grants:0.5", "delayed-grants:0.5,2"}

// runScript executes one scripted run: byte i schedules philosopher
// b%numPhils and resolves its action to outcome (b>>4)%len(outcomes).
func runScript(t *testing.T, topo *graph.Topology, prog sim.Program, script []byte) *sim.World {
	t.Helper()
	w := sim.NewWorld(topo)
	prog.Init(w)
	n := topo.NumPhilosophers()
	var buf []sim.Outcome
	for _, b := range script {
		p := graph.PhilID(int(b) % n)
		buf = prog.Outcomes(w, p, buf[:0])
		if len(buf) == 0 {
			continue
		}
		o := &buf[int(b>>4)%len(buf)]
		o.Do(w, p)
		w.Step++
	}
	return w
}

// guestRanks rank-normalizes one fork's guest book with an independent
// algorithm (sort + dedup of the distinct signing steps) so the comparison
// does not share code with the encoder it checks: -1 for "never signed",
// otherwise the entry's rank among the fork's distinct signing steps.
func guestRanks(used []int64) []int {
	var distinct []int64
	for _, u := range used {
		if u >= 0 {
			distinct = append(distinct, u)
		}
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	out := make([]int, len(used))
	for i, u := range used {
		if u < 0 {
			out[i] = -1
			continue
		}
		out[i], _ = slices.BinarySearch(distinct, u)
	}
	return out
}

// observablyEqual compares every protocol field a philosopher program can
// read: philosopher states, fork holders and nr values, request lists,
// rank-normalized guest books, in-flight fork grants (a nil pending array is
// observably all-zero, matching the key's suffix convention) and the shared
// globals. Run metrics and the step counter are excluded, exactly as they
// are from the key.
func observablyEqual(a, b *sim.World) bool {
	if !slices.Equal(a.Phils, b.Phils) || !slices.Equal(a.Forks, b.Forks) {
		return false
	}
	for f := 0; f < a.Topo.NumForks(); f++ {
		fid := graph.ForkID(f)
		if !slices.Equal(a.ForkReqForTest(fid), b.ForkReqForTest(fid)) {
			return false
		}
		if !slices.Equal(guestRanks(a.ForkUsed(fid)), guestRanks(b.ForkUsed(fid))) {
			return false
		}
	}
	for p := 0; p < a.Topo.NumPhilosophers(); p++ {
		pid := graph.PhilID(p)
		fa, da, oka := a.PendingGrant(pid)
		fb, db, okb := b.PendingGrant(pid)
		if oka != okb || fa != fb || da != db {
			return false
		}
	}
	return slices.Equal(a.Globals, b.Globals)
}

func FuzzWorldAppendKey(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{0, 1, 2}, []byte{0, 1, 2}, byte(1))
	f.Add([]byte{0, 0, 16, 32, 1, 1, 17}, []byte{2, 2, 18, 34}, byte(2))
	f.Add([]byte{5, 21, 37, 53, 69, 85}, []byte{3, 19, 35, 51}, byte(3))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 17, 33}, 20), bytes.Repeat([]byte{2, 1, 0}, 25), byte(4))
	// Fault-wrapped seeds: high nibble selects the fault model, so crash,
	// rejoin and grant-lost transitions reach the encoder from the corpus.
	f.Add([]byte{0, 1, 2, 17, 33, 49}, []byte{0, 1, 2}, byte(0x10))
	f.Add([]byte{5, 21, 37, 53, 69, 85}, []byte{3, 19, 35, 51}, byte(0x21))
	f.Add(bytes.Repeat([]byte{0, 16, 32, 48}, 15), bytes.Repeat([]byte{1, 17, 33}, 20), byte(0x33))
	// Delayed-grants seeds: flight branches put grants in flight, so the
	// pending-grant key suffix (and its nil ≡ all-zero convention) is hit.
	f.Add([]byte{0, 16, 16, 16, 1, 17, 17}, []byte{0, 16, 32, 48, 16}, byte(0x40))
	f.Add(bytes.Repeat([]byte{0, 16, 1, 17, 2, 18}, 12), bytes.Repeat([]byte{16, 17, 18}, 16), byte(0x42))
	f.Fuzz(func(t *testing.T, scriptA, scriptB []byte, algPick byte) {
		topo := graph.Theorem2Minimal()
		prog, err := algo.New(fuzzAlgorithms[int(algPick&0x0f)%len(fuzzAlgorithms)], algo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if spec := fuzzFaults[int(algPick>>4)%len(fuzzFaults)]; spec != "" {
			m, err := fault.NewFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(topo); err != nil {
				t.Fatal(err)
			}
			prog = m.Wrap(topo, prog)
		}
		wa := runScript(t, topo, prog, scriptA)
		wb := runScript(t, topo, prog, scriptB)

		keyA := string(wa.AppendKey(nil))
		keyB := string(wb.AppendKey(nil))

		// Determinism: re-encoding the same world and re-running the same
		// script must reproduce the key byte for byte.
		if again := string(wa.AppendKey(nil)); again != keyA {
			t.Fatalf("%s: AppendKey is not deterministic on one world", prog.Name())
		}
		if replay := string(runScript(t, topo, prog, scriptA).AppendKey(nil)); replay != keyA {
			t.Fatalf("%s: the same script produced different keys across runs", prog.Name())
		}

		// Injectivity on observable protocol state, both directions: equal
		// keys must mean observably equal worlds (a collision here would
		// silently merge distinct states in the model checker) and
		// observably equal worlds must collide (or revisited states would
		// never deduplicate and the exploration would diverge).
		if eq := observablyEqual(wa, wb); (keyA == keyB) != eq {
			t.Errorf("%s: key equality %v but observable equality %v\nworld A: %v\nworld B: %v",
				prog.Name(), keyA == keyB, eq, wa, wb)
		}
	})
}
