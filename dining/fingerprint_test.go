package dining_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/dining"
	"repro/internal/trace"
)

// TestFingerprintStableAcrossProcesses pins the exact fingerprint of a known
// configuration. The value is the contract: it must be reproducible in every
// process on every platform, because cmd/dpserve uses it as the cache key
// for explored state spaces. If this test fails, the canonical encoding
// changed — bump fingerprintVersion and update the pin deliberately.
func TestFingerprintStableAcrossProcesses(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Ring(3), dining.LR1)
	const want = "a84bfa3b98601de34710fa3e2a805656"
	if got := eng.Fingerprint(); got != want {
		t.Errorf("Fingerprint() = %q, want the cross-process pin %q", got, want)
	}
}

// TestFingerprintEqualForEqualConfigs checks that two independently
// constructed engines with the same configuration agree.
func TestFingerprintEqualForEqualConfigs(t *testing.T) {
	t.Parallel()
	opts := []dining.Option{
		dining.WithScheduler(dining.Adversary),
		dining.WithSeed(42),
		dining.WithMaxStates(5000),
		dining.WithShards(4),
		dining.WithProtected(0, 2),
		dining.WithFaults("crash-rejoin:0.1,0.5"),
	}
	a := mustEngine(t, dining.Theorem2Minimal(), dining.GDP2, opts...)
	b := mustEngine(t, dining.Theorem2Minimal(), dining.GDP2, opts...)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("equal configs disagree: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestFingerprintDistinguishesConfigs builds one variant per configuration
// axis and checks that every fingerprint is unique — in particular the
// distinct-fault-spec and distinct-shard cases the serve cache relies on.
// The m variant runs GDP1, which reads m (LR1 does not).
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	t.Parallel()
	base := func(extra ...dining.Option) *dining.Engine {
		return mustEngine(t, dining.Ring(3), dining.LR1, extra...)
	}
	variants := map[string]*dining.Engine{
		"base":            base(),
		"algorithm":       mustEngine(t, dining.Ring(3), dining.LR2),
		"topology-size":   mustEngine(t, dining.Ring(4), dining.LR1),
		"topology-kind":   mustEngine(t, dining.Theorem2Minimal(), dining.LR1),
		"scheduler":       base(dining.WithScheduler(dining.Adversary)),
		"seed":            base(dining.WithSeed(7)),
		"max-steps":       base(dining.WithMaxSteps(123)),
		"max-states":      base(dining.WithMaxStates(99)),
		"trials":          base(dining.WithTrials(17)),
		"fairness-window": base(dining.WithFairnessWindow(64)),
		"protected":       base(dining.WithProtected(1)),
		"shards":          base(dining.WithShards(8)),
		"algo-gdp1":       mustEngine(t, dining.Ring(3), dining.GDP1),
		"algo-m":          mustEngine(t, dining.Ring(3), dining.GDP1, dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: 9})),
		"fault-crash":     base(dining.WithFaults("crash-rejoin:0.1")),
		"fault-freeze":    base(dining.WithFaults("freeze:0.1")),
		"fault-rate":      base(dining.WithFaults("crash-rejoin:0.2")),
		"fault-target":    base(dining.WithFaults("crash-rejoin:0.1@1")),
		"symmetry":        base(dining.WithSymmetry()),
	}
	seen := make(map[string]string, len(variants))
	for name, eng := range variants {
		fp := eng.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variants %q and %q share fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintCanonicalProtectedSet pins that every spelling of one
// protected set configures one engine: New sorts the set and drops
// duplicates, so the fingerprint and Protected agree across spellings.
func TestFingerprintCanonicalProtectedSet(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ a, b, want []dining.PhilID }{
		{[]dining.PhilID{0, 0}, []dining.PhilID{0}, []dining.PhilID{0}},
		{[]dining.PhilID{1, 0}, []dining.PhilID{0, 1}, []dining.PhilID{0, 1}},
	} {
		a := mustEngine(t, dining.Ring(3), dining.GDP2, dining.WithProtected(tc.a...))
		b := mustEngine(t, dining.Ring(3), dining.GDP2, dining.WithProtected(tc.b...))
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("protected %v and %v: fingerprints %s and %s differ", tc.a, tc.b, a.Fingerprint(), b.Fingerprint())
		}
		if !slices.Equal(a.Protected(), tc.want) || !slices.Equal(b.Protected(), tc.want) {
			t.Errorf("protected %v and %v: Protected() = %v and %v, want %v", tc.a, tc.b, a.Protected(), b.Protected(), tc.want)
		}
	}
}

// TestFingerprintCanonicalAlgorithmOptions pins that New keeps only the
// algorithm options the algorithm reads: an ignored option leaves the
// fingerprint and AlgorithmOptions as without it, a read one changes the
// fingerprint, and an algorithm registered outside the built-ins keeps its
// options as given.
func TestFingerprintCanonicalAlgorithmOptions(t *testing.T) {
	t.Parallel()
	with := func(alg string, opts dining.AlgorithmOptions) *dining.Engine {
		return mustEngine(t, dining.Ring(3), alg, dining.WithAlgorithmOptions(opts))
	}
	for _, c := range []struct {
		alg  string
		opts dining.AlgorithmOptions
		same bool
	}{
		{dining.LR1, dining.AlgorithmOptions{M: 7}, true},
		{dining.GDP1, dining.AlgorithmOptions{CourtesyOnBothForks: true}, true},
		{dining.OrderedForks, dining.AlgorithmOptions{M: 7}, true},
		{dining.GDP1, dining.AlgorithmOptions{M: 3}, true}, // ring-3 has three forks
		{dining.GDP1, dining.AlgorithmOptions{M: 7}, false},
		{dining.LR2, dining.AlgorithmOptions{CourtesyOnBothForks: true}, false},
	} {
		plain, tuned := with(c.alg, dining.AlgorithmOptions{}), with(c.alg, c.opts)
		if same := plain.Fingerprint() == tuned.Fingerprint(); same != c.same {
			t.Errorf("%s %+v: fingerprint %s, plain %s; want equal %t", c.alg, c.opts, tuned.Fingerprint(), plain.Fingerprint(), c.same)
		}
		if want := c.opts; c.same && tuned.AlgorithmOptions() != (dining.AlgorithmOptions{}) || !c.same && tuned.AlgorithmOptions() != want {
			t.Errorf("%s %+v: AlgorithmOptions() = %+v", c.alg, c.opts, tuned.AlgorithmOptions())
		}
	}
	const alias = "test-canonical-alias"
	if !slices.Contains(dining.Algorithms(), alias) {
		dining.RegisterAlgorithm(alias, func(o dining.AlgorithmOptions) dining.Program {
			p, err := dining.NewAlgorithm(dining.LR1, o)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
	}
	opts := dining.AlgorithmOptions{M: 7, CourtesyOnBothForks: true}
	if got := with(alias, opts).AlgorithmOptions(); got != opts {
		t.Errorf("registered algorithm: AlgorithmOptions() = %+v, want %+v as given", got, opts)
	}
}

// TestFingerprintIgnoresWorkers pins the deliberate exclusion: the worker
// count is a resource knob with bit-identical results for every value, so it
// must not split the cache.
func TestFingerprintIgnoresWorkers(t *testing.T) {
	t.Parallel()
	a := mustEngine(t, dining.Ring(3), dining.GDP1, dining.WithWorkers(1))
	b := mustEngine(t, dining.Ring(3), dining.GDP1, dining.WithWorkers(8))
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("workers changed the fingerprint: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestExploreMatchesCheck checks that the exported Explore produces the same
// space Engine.Check analyses: state and transition counts match the counts
// echoed in PropertyResult, and a space explored once can be handed to a
// property through PropertyInput.Space.
func TestExploreMatchesCheck(t *testing.T) {
	t.Parallel()
	eng := mustEngine(t, dining.Theorem2Minimal(), dining.LR2)
	ss, err := eng.Explore(nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.CheckAll(nil, dining.StarvationTrap)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].States != ss.NumStates() || results[0].Transitions != ss.NumTransitions() {
		t.Errorf("Explore space (%d states, %d transitions) disagrees with Check (%d, %d)",
			ss.NumStates(), ss.NumTransitions(), results[0].States, results[0].Transitions)
	}
	prop, err := dining.LookupProperty(dining.StarvationTrap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prop.Check(context.Background(), dining.PropertyInput{Engine: eng, Space: ss})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed != results[0].Passed || res.Detail != results[0].Detail {
		t.Errorf("check on cached space = (%v, %q), want (%v, %q)",
			res.Passed, res.Detail, results[0].Passed, results[0].Detail)
	}
}

// TestFingerprintGolden pins the fingerprint of a grid of configurations in
// testdata/fingerprints.golden, one "name fingerprint" line each: every
// With* option on ring-3/LR1, every fault model with rates and targets given
// through its spec, and every algorithm on ring-3 at its default options and
// with M 3, M 7 and CourtesyOnBothForks. A change to the canonical encoding
// or to what New stores shows up as a changed line. Regenerate it only for a
// deliberate change:
//
//	go test ./dining -run TestFingerprintGolden -update-golden
func TestFingerprintGolden(t *testing.T) {
	t.Parallel()
	type row struct {
		name string
		topo *dining.Topology
		alg  string
		opts []dining.Option
	}
	ring3 := dining.Ring(3)
	rows := []row{
		{"default", ring3, dining.LR1, nil},
		{"scheduler-adversary", ring3, dining.LR1, []dining.Option{dining.WithScheduler(dining.Adversary)}},
		{"seed-7", ring3, dining.LR1, []dining.Option{dining.WithSeed(7)}},
		{"workers-8", ring3, dining.LR1, []dining.Option{dining.WithWorkers(8)}},
		{"shards-8", ring3, dining.LR1, []dining.Option{dining.WithShards(8)}},
		{"max-steps-123", ring3, dining.LR1, []dining.Option{dining.WithMaxSteps(123)}},
		{"protected-2,0,2", ring3, dining.LR1, []dining.Option{dining.WithProtected(2, 0, 2)}},
		{"fairness-window-64", ring3, dining.LR1, []dining.Option{dining.WithFairnessWindow(64)}},
		{"max-states-99", ring3, dining.LR1, []dining.Option{dining.WithMaxStates(99)}},
		{"trials-17", ring3, dining.LR1, []dining.Option{dining.WithTrials(17)}},
		{"symmetry", ring3, dining.LR1, []dining.Option{dining.WithSymmetry()}},
		{"recorder", ring3, dining.LR1, []dining.Option{dining.WithRecorder(trace.NewLog(0))}},
		{"gdp2-theta-combined", dining.Theorem2Minimal(), dining.GDP2, []dining.Option{
			dining.WithProtected(0, 2), dining.WithShards(4), dining.WithFaults("crash-rejoin:0.1,0.5@1"),
			dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: 9, CourtesyOnBothForks: true}),
		}},
	}
	// Explicit lists: registry tests register further names at run time.
	for _, model := range []string{"crash-rejoin", "delayed-grants", "freeze", "lossy-grants"} {
		for _, suffix := range []string{"", ":0.2", "@1", ":0.2@2,0"} {
			spec := model + suffix
			rows = append(rows, row{"faults-" + spec, ring3, dining.LR1, []dining.Option{dining.WithFaults(spec)}})
		}
	}
	for _, alg := range []string{dining.GDP1, dining.GDP2, dining.LR1, dining.LR2, dining.CentralMonitor, dining.Colored, dining.NaiveLeftFirst, dining.OrderedForks, dining.TicketBox} {
		for _, set := range []struct {
			name string
			opts dining.AlgorithmOptions
		}{
			{"default", dining.AlgorithmOptions{}},
			{"m-3", dining.AlgorithmOptions{M: 3}},
			{"m-7", dining.AlgorithmOptions{M: 7}},
			{"courtesy-both", dining.AlgorithmOptions{CourtesyOnBothForks: true}},
		} {
			rows = append(rows, row{alg + "-" + set.name, ring3, alg, []dining.Option{dining.WithAlgorithmOptions(set.opts)}})
		}
	}

	var out bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&out, "%s %s\n", r.name, mustEngine(t, r.topo, r.alg, r.opts...).Fingerprint())
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./dining -run TestFingerprintGolden -update-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("fingerprint grid has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
