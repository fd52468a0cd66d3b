package dining

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/graph"
)

// fingerprintVersion tags the canonical encoding; bump it whenever a field
// is added, removed or re-ordered so that stale cache entries keyed by an
// older encoding can never alias a new configuration. v2 added the symmetry
// bit (WithSymmetry changes the explored space, so quotiented and unreduced
// explorations must never share a cache entry).
const fingerprintVersion = "dining-fingerprint-v2"

// Fingerprint returns a stable hexadecimal key of the engine's canonical
// configuration: the topology (name and full fork/philosopher structure,
// so two same-named custom topologies with different wiring never collide),
// the algorithm and its options, the scheduler, the base seed, the step and
// state bounds, the statistical trial count, the fairness window, the
// protected set, the exploration shard count and the canonical fault spec.
//
// The fingerprint is a pure function of the configuration — it never reads
// the clock, the environment or any global state — and the encoding is
// fixed-width and versioned, so the same configuration produces the same
// key in every process, on every platform, across runs. Two engines with
// equal fingerprints are behaviourally identical: every Run, Trials, Check
// and Explore result is bit-identical between them. This is what makes
// the fingerprint safe to use as a cache key for explored state spaces
// (cmd/dpserve does exactly that); deriving keys any other way risks
// drifting from engine semantics when options are added.
//
// Two deliberate exclusions:
//
//   - WithWorkers is NOT part of the fingerprint. The worker count is a
//     resource knob: every result is pinned bit-identical for every value,
//     so two requests differing only in workers share one cache entry.
//   - WithRecorder is NOT part of the fingerprint. A recorder observes a
//     run; it never alters the transition system.
//
// WithShards IS included even though verdicts are provably identical for
// every shard count: the shard count selects the physical layout of the
// explored state space, so a cache keyed by the fingerprint hands back a
// space laid out exactly as the configuration requested.
func (e *Engine) Fingerprint() string {
	h := sha256.New()
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}

	str(fingerprintVersion)
	// Topology: registered name plus the complete structure.
	str(e.topo.Name())
	u64(uint64(e.topo.NumForks()))
	u64(uint64(e.topo.NumPhilosophers()))
	for p := 0; p < e.topo.NumPhilosophers(); p++ {
		forks := e.topo.Forks(graph.PhilID(p))
		u64(uint64(forks[0]))
		u64(uint64(forks[1]))
	}
	// Algorithm and options, as New canonicalized them. A zero word and a
	// false word stand where two retired options (a coin bias and a
	// courtesy-off switch) were, so no fingerprint moved when they went.
	str(e.alg)
	u64(0)
	u64(uint64(e.cfg.algoOpts.M))
	b(false)
	b(e.cfg.algoOpts.CourtesyOnBothForks)
	// Scheduler, seed, bounds.
	str(e.cfg.scheduler)
	u64(e.cfg.seed)
	u64(uint64(e.cfg.maxSteps))
	u64(uint64(e.cfg.maxStates))
	u64(uint64(e.cfg.trials))
	u64(uint64(e.cfg.fairnessWindow))
	// Protected set, canonical: New sorts it and drops duplicates, so every
	// spelling of one set shares this encoding.
	u64(uint64(len(e.cfg.protected)))
	for _, p := range e.cfg.protected {
		u64(uint64(p))
	}
	// Storage layout.
	u64(uint64(e.cfg.shards))
	// Symmetry quotient: a quotiented space stores orbit representatives, so
	// it must never alias the unreduced space of the same configuration.
	b(e.cfg.symmetry)
	// Fault model, by canonical spec ("" when none): Spec() re-canonicalizes
	// rates and targets, so every spelling of the same model agrees.
	str(e.Faults())

	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
