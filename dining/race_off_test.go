//go:build !race

package dining_test

// raceEnabled reports whether this test binary runs under the race detector.
const raceEnabled = false
