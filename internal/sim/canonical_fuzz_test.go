package sim_test

// Fuzz harness for the orbit canonicalizer (World.AppendCanonicalKey), the
// symmetry-quotient counterpart of the AppendKey injectivity fuzzer. The
// properties under test are the quotient soundness contract:
//
//  1. Representative: the canonical key of a world is the lexicographic
//     minimum over the plain keys of all its group images — in particular it
//     IS the plain key of some image (the identity is in the group), so
//     canonicalization is idempotent: the minimal image canonicalizes to
//     itself.
//  2. Invariance: applying any group element to a world leaves its canonical
//     key unchanged (checked for every element of an independently closed
//     group, which subsumes every generator application).
//  3. Collision exactness: two worlds share a canonical key if and only if
//     some automorphism maps one onto the other at the key level — quotient
//     states merge orbits, never unrelated states.
//
// Worlds are generated by scripted field mutations rather than algorithm
// runs: the canonical encoder must agree with the plain encoder on arbitrary
// field combinations (crashed bits, request lists, guest-book ranks, nr
// values, in-flight fork grants), not just ones a particular algorithm
// reaches.

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// fuzzCanonTopology picks a symmetric topology family and size.
func fuzzCanonTopology(sel byte) *graph.Topology {
	if sel%2 == 0 {
		return graph.Ring(3 + int(sel/2)%4) // ring-3..6
	}
	return graph.Star(2 + int(sel/2)%4) // star-2..5
}

// mutateCanonWorld applies a scripted sequence of field mutations. Every
// write stays within the encoder's domain (IDs in range), but no protocol
// invariant is maintained — canonicalization is a pure key transformation.
func mutateCanonWorld(topo *graph.Topology, w *sim.World, data []byte) {
	n, k := topo.NumPhilosophers(), topo.NumForks()
	for i := 0; i+2 < len(data); i += 3 {
		op, x, v := data[i], int(data[i+1]), data[i+2]
		switch op % 8 {
		case 0:
			p := &w.Phils[x%n]
			p.PC = v % 8
			p.Phase = sim.Phase(v % 3)
		case 1:
			p := &w.Phils[x%n]
			if v%3 == 0 {
				p.First, p.HasFirst, p.HasSecond = graph.NoFork, false, false
			} else {
				p.First = graph.ForkID(int(v) % k)
				p.HasFirst = v%2 == 0
				p.HasSecond = v%5 == 0
			}
		case 2:
			w.Phils[x%n].Crashed = v%2 == 1
		case 3:
			w.Phils[x%n].Aux[v%2] = int64(v%5) - 2
		case 4:
			f := &w.Forks[x%k]
			if v%3 == 0 {
				f.Holder = graph.NoPhil
			} else {
				f.Holder = graph.PhilID(int(v) % n)
			}
			f.NR = int(v % 6)
		case 5:
			req := w.ForkReqForTest(graph.ForkID(x % k))
			req[int(v)%len(req)] = !req[int(v)%len(req)]
		case 6:
			used := w.ForkUsed(graph.ForkID(x % k))
			// Small values force rank collisions, -1 is "never signed".
			used[int(v)%len(used)] = int64(v%5) - 1
		case 7:
			f := graph.ForkID(x % k)
			phils := topo.PhilosophersAt(f)
			p := phils[int(v)%len(phils)]
			// v%5 == 0 writes a zero entry, still materializing the pending
			// array — the nil ≡ all-zero key convention must hold.
			w.SetPendingForTest(f, p, v%(sim.MaxGrantDelay+1), v%5 != 0)
		}
	}
}

// applyAutomorphism materializes the image of w under a, independently of the
// encoder's permuted-walk implementation: philosopher and fork states move to
// their image positions with internal references (selected fork, holder)
// mapped forward, and each adjacency slot (f, p) lands at (a.Fork[f],
// a.Phil[p]).
func applyAutomorphism(topo *graph.Topology, a graph.Automorphism, w *sim.World) *sim.World {
	out := sim.NewWorld(topo)
	for p := range w.Phils {
		st := w.Phils[p]
		if st.First != graph.NoFork {
			st.First = a.Fork[st.First]
		}
		out.Phils[a.Phil[p]] = st
	}
	for f := range w.Forks {
		fs := w.Forks[f]
		if fs.Holder != graph.NoPhil {
			fs.Holder = a.Phil[fs.Holder]
		}
		out.Forks[a.Fork[f]] = fs
	}
	for f := 0; f < topo.NumForks(); f++ {
		src := graph.ForkID(f)
		dst := a.Fork[f]
		sreq, sused := w.ForkReqForTest(src), w.ForkUsed(src)
		dreq, dused := out.ForkReqForTest(dst), out.ForkUsed(dst)
		for i, p := range topo.PhilosophersAt(src) {
			j := topo.Slot(dst, a.Phil[p])
			dreq[j] = sreq[i]
			dused[j] = sused[i]
		}
		for _, p := range topo.PhilosophersAt(src) {
			if d, ok := w.PendingAtForTest(src, p); ok {
				out.SetPendingForTest(dst, a.Phil[p], d, true)
			}
		}
	}
	return out
}

// closeTestGroup is an independent closure of the declared generators.
func closeTestGroup(topo *graph.Topology) []graph.Automorphism {
	gens := topo.Automorphisms()
	type key = string
	encode := func(a graph.Automorphism) key {
		var b []byte
		for _, q := range a.Phil {
			b = append(b, byte(q))
		}
		for _, g := range a.Fork {
			b = append(b, byte(g))
		}
		return key(b)
	}
	id := graph.Automorphism{
		Phil: make([]graph.PhilID, topo.NumPhilosophers()),
		Fork: make([]graph.ForkID, topo.NumForks()),
	}
	for i := range id.Phil {
		id.Phil[i] = graph.PhilID(i)
	}
	for i := range id.Fork {
		id.Fork[i] = graph.ForkID(i)
	}
	seen := map[key]bool{encode(id): true}
	group := []graph.Automorphism{id}
	for q := []graph.Automorphism{id}; len(q) > 0; {
		cur := q[0]
		q = q[1:]
		for _, g := range gens {
			next := graph.Automorphism{
				Phil: make([]graph.PhilID, len(cur.Phil)),
				Fork: make([]graph.ForkID, len(cur.Fork)),
			}
			for p := range next.Phil {
				next.Phil[p] = g.Phil[cur.Phil[p]]
			}
			for f := range next.Fork {
				next.Fork[f] = g.Fork[cur.Fork[f]]
			}
			if k := encode(next); !seen[k] {
				seen[k] = true
				group = append(group, next)
				q = append(q, next)
			}
		}
	}
	return group
}

func FuzzOrbitCanonicalizer(f *testing.F) {
	f.Add(byte(0), []byte{}, []byte{})
	f.Add(byte(0), []byte{0, 0, 4, 4, 1, 3}, []byte{0, 1, 4})
	f.Add(byte(1), []byte{5, 2, 9, 6, 0, 7, 1, 2, 2}, []byte{5, 2, 9})
	f.Add(byte(3), []byte{2, 1, 1, 3, 0, 2, 6, 0, 3}, []byte{4, 0, 1, 6, 1, 2})
	f.Add(byte(7), []byte{0, 3, 5, 5, 1, 1, 6, 2, 4}, []byte{0, 3, 5, 5, 1, 1, 6, 2, 4})
	// Pending-grant mutations (op 7): in-flight entries on both worlds, plus
	// an explicit zero entry (v%5 == 0) against a world with no array at all.
	f.Add(byte(2), []byte{7, 0, 9, 7, 1, 6, 4, 0, 3}, []byte{7, 0, 9, 7, 1, 6})
	f.Add(byte(5), []byte{7, 2, 5, 15, 1, 7}, []byte{15, 1, 7})
	f.Fuzz(func(t *testing.T, sel byte, script1, script2 []byte) {
		topo := fuzzCanonTopology(sel)
		canon, err := graph.NewOrbitCanonicalizer(topo, graph.CanonOptions{})
		if err != nil {
			t.Fatal(err)
		}
		group := closeTestGroup(topo)
		if len(canon.Perms()) != len(group) {
			t.Fatalf("%s: canonicalizer enumerates %d elements, independent closure %d", topo.Name(), len(canon.Perms()), len(group))
		}

		w1 := sim.NewWorld(topo)
		mutateCanonWorld(topo, w1, script1)
		w2 := sim.NewWorld(topo)
		mutateCanonWorld(topo, w2, script2)

		ck1 := w1.AppendCanonicalKey(canon, nil)
		ck2 := w2.AppendCanonicalKey(canon, nil)

		// Property 1: the canonical key is the lex-min over the plain keys of
		// all images (and therefore the plain key of SOME image).
		var min []byte
		isImage := false
		for _, a := range group {
			img := applyAutomorphism(topo, a, w1)
			pk := img.AppendKey(nil)
			if min == nil || bytes.Compare(pk, min) < 0 {
				min = pk
			}
			if bytes.Equal(pk, ck1) {
				isImage = true
				// Property 1b (idempotence): the minimal image canonicalizes
				// to itself.
				if rk := img.AppendCanonicalKey(canon, nil); bytes.Equal(pk, min) && !bytes.Equal(rk, pk) {
					t.Errorf("%s: canonical world re-canonicalizes to a different key", topo.Name())
				}
			}
		}
		if !bytes.Equal(ck1, min) {
			t.Errorf("%s: canonical key is not the lex-min image key", topo.Name())
		}
		if !isImage {
			t.Errorf("%s: canonical key is not the plain key of any group image", topo.Name())
		}

		// Property 2: invariance under every group element (subsumes every
		// generator application).
		automorphic := false
		for _, a := range group {
			img := applyAutomorphism(topo, a, w1)
			if ik := img.AppendCanonicalKey(canon, nil); !bytes.Equal(ik, ck1) {
				t.Errorf("%s: image under %v has different canonical key", topo.Name(), a.Phil)
			}
			if bytes.Equal(img.AppendKey(nil), w2.AppendKey(nil)) {
				automorphic = true
			}
		}

		// Property 3: collision exactness.
		if collide := bytes.Equal(ck1, ck2); collide != automorphic {
			t.Errorf("%s: canonical keys collide=%v but automorphic=%v", topo.Name(), collide, automorphic)
		}
	})
}

// TestCanonicalKeyTrivialFallbacks pins the unreduced fallbacks: nil and
// trivial canonicalizers and worlds with globals all produce the plain key.
func TestCanonicalKeyTrivialFallbacks(t *testing.T) {
	t.Parallel()
	ring := graph.Ring(3)
	w := sim.NewWorld(ring)
	if got := w.AppendCanonicalKey(nil, nil); !bytes.Equal(got, w.AppendKey(nil)) {
		t.Error("nil canonicalizer: canonical key differs from plain key")
	}
	trivial, err := graph.NewOrbitCanonicalizer(graph.Theorem2Minimal(), graph.CanonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wt := sim.NewWorld(graph.Theorem2Minimal())
	if got := wt.AppendCanonicalKey(trivial, nil); !bytes.Equal(got, wt.AppendKey(nil)) {
		t.Error("trivial canonicalizer: canonical key differs from plain key")
	}
	canon, err := graph.NewOrbitCanonicalizer(ring, graph.CanonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wg := sim.NewWorld(ring)
	wg.Globals = []int64{7}
	if got := wg.AppendCanonicalKey(canon, nil); !bytes.Equal(got, wg.AppendKey(nil)) {
		t.Error("globals world: canonical key differs from plain key")
	}
}
