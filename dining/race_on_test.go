//go:build race

package dining_test

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation (and sync.Pool's deliberate cache randomization)
// makes allocation counts meaningless.
const raceEnabled = true
