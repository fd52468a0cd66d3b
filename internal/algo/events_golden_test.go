package algo

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the event-stream golden file")

// eventHash is a sim.Recorder folding every event's fields into a 64-bit
// FNV-1a hash, so a golden line pins a whole run's event stream without
// depending on Event.String.
type eventHash struct {
	h   hash.Hash64
	buf [8 * 5]byte
}

func (e *eventHash) Record(ev sim.Event) {
	binary.LittleEndian.PutUint64(e.buf[0:], uint64(ev.Step))
	binary.LittleEndian.PutUint64(e.buf[8:], uint64(ev.Kind))
	binary.LittleEndian.PutUint64(e.buf[16:], uint64(ev.Phil))
	binary.LittleEndian.PutUint64(e.buf[24:], uint64(ev.Fork))
	binary.LittleEndian.PutUint64(e.buf[32:], uint64(ev.Detail))
	e.h.Write(e.buf[:])
}

// TestEventStreamGolden pins the full event stream of every registered
// algorithm: one line per (algorithm, option set, topology, scheduler) of a
// seeded 2,000-step run, holding the hash of its events, its meal counts and
// the program's Symmetric and SideSymmetric answers (a program that does not
// implement sim.SideSymmetricProgram counts as side-asymmetric, as it does
// for the symmetry gate). Every label, outcome order
// and probability, PC and event of a step shows up in the hash, so a
// refactor of the step functions must leave testdata/events.golden
// byte-identical. Regenerate it only for a deliberate change:
//
//	go test ./internal/algo -run TestEventStreamGolden -update-golden
func TestEventStreamGolden(t *testing.T) {
	optionSets := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"m-7", Options{M: 7}},
		{"courtesy-both", Options{CourtesyOnBothForks: true}},
	}
	topologies := []struct {
		name string
		n    int
	}{{"ring", 3}, {"theta", 0}, {"figure1a", 0}, {"star", 4}, {"path", 4}}
	schedulers := []string{"random", "adversary"}

	var out bytes.Buffer
	for _, name := range Names() {
		for _, set := range optionSets {
			for _, tc := range topologies {
				topo, err := graph.NewTopology(tc.name, tc.n)
				if err != nil {
					t.Fatal(err)
				}
				for _, sname := range schedulers {
					prog, err := New(name, set.opts)
					if err != nil {
						t.Fatal(err)
					}
					scheduler, err := sched.New(sname, sched.Config{RNG: prng.New(2)})
					if err != nil {
						t.Fatal(err)
					}
					rec := &eventHash{h: fnv.New64a()}
					res, err := sim.Run(topo, prog, scheduler, prng.New(1), sim.RunOptions{
						MaxSteps:         2000,
						Recorder:         rec,
						ValidateOutcomes: true,
					})
					if err != nil {
						t.Fatalf("%s %s %s-%d %s: %v", name, set.name, tc.name, tc.n, sname, err)
					}
					ss, ok := prog.(sim.SideSymmetricProgram)
					side := ok && ss.SideSymmetric()
					fmt.Fprintf(&out, "%s %s %s-%d %s events=%016x eats=%v symmetric=%t side-symmetric=%t\n",
						name, set.name, tc.name, tc.n, scheduler.Name(), rec.h.Sum64(), res.EatsBy, prog.Symmetric(), side)
				}
			}
		}
	}

	goldenPath := filepath.Join("testdata", "events.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/algo -run TestEventStreamGolden -update-golden): %v", err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("event stream changed at line %d:\n got: %s\nwant: %s", i+1, g, w)
			return
		}
	}
}

// TestCanonicalOptionsRunTheSameProgram pins that Canonical drops only
// options the algorithm does not read: for every built-in algorithm, option
// set, topology and scheduler, the run under the given options and the run
// under their canonical form record the same event stream, step for step.
func TestCanonicalOptionsRunTheSameProgram(t *testing.T) {
	t.Parallel()
	run := func(name string, opts Options, topo *graph.Topology, sname string) uint64 {
		scheduler, err := sched.New(sname, sched.Config{RNG: prng.New(2)})
		if err != nil {
			t.Fatal(err)
		}
		rec := &eventHash{h: fnv.New64a()}
		if _, err := sim.Run(topo, mustNew(t, name, opts), scheduler, prng.New(1), sim.RunOptions{MaxSteps: 2000, Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.h.Sum64()
	}
	for _, name := range Names() {
		for _, topo := range []*graph.Topology{graph.Ring(3), graph.Theorem2Minimal(), graph.Figure1A()} {
			for _, opts := range []Options{{M: 2}, {M: 3}, {M: 7}, {CourtesyOnBothForks: true}, {M: 7, CourtesyOnBothForks: true}} {
				canon := Canonical(name, opts, topo)
				for _, sname := range []string{"random", "adversary"} {
					if got, want := run(name, canon, topo, sname), run(name, opts, topo, sname); got != want {
						t.Errorf("%s on %s under %s: options %+v and their canonical form %+v run different programs", name, topo.Name(), sname, opts, canon)
					}
				}
			}
		}
	}
}
