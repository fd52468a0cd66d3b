package dining_test

import (
	"context"
	"slices"
	"testing"

	"repro/dining"
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
		dining.WithFaults("crash-rejoin", 0.1, 0.5),
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
		"algo-m":          base(dining.WithAlgorithmOptions(dining.AlgorithmOptions{M: 9})),
		"fault-crash":     base(dining.WithFaults("crash-rejoin", 0.1)),
		"fault-freeze":    base(dining.WithFaults("freeze", 0.1)),
		"fault-rate":      base(dining.WithFaults("crash-rejoin", 0.2)),
		"fault-target":    base(dining.WithFaults("crash-rejoin", 0.1), dining.WithFaultTargets(1)),
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
