package serve

// The per-line configuration echo. This file is part of the detsource-gated
// core (see internal/analysis): a Config is derived purely from the engine,
// so the echo on every response line is a deterministic function of the
// request — no clocks, no environment.

import (
	"repro/dining"
)

// Config is the canonical engine configuration echoed on every response
// line of an engine endpoint. It is built from the engine that actually
// ran — not from the request body — so the echo reports what the server
// executed, defaults applied. Fingerprint is dining.Engine.Fingerprint(),
// the exact key the state-space cache used; the remaining fields spell the
// configuration out so a single logged line suffices to rebuild the engine.
//
// Workers appears in the echo but not in the fingerprint: it is a resource
// knob with bit-identical results for every value, so it never splits the
// cache, but a reproducer still wants to know what the server ran with.
//
// M is the number range the algorithm reads, spelled as the request spells
// it and omitted when the algorithm reads none (dining.Engine keeps only the
// options an algorithm reads). No request field sets CourtesyOnBothForks,
// so the echo does not carry it.
type Config struct {
	Fingerprint    string          `json:"fingerprint"`
	Topology       string          `json:"topology"`
	Phils          int             `json:"phils"`
	Forks          int             `json:"forks"`
	Algorithm      string          `json:"algorithm"`
	Scheduler      string          `json:"scheduler"`
	Seed           uint64          `json:"seed"`
	MaxSteps       int64           `json:"max_steps,omitempty"`
	MaxStates      int             `json:"max_states,omitempty"`
	Trials         int             `json:"trials,omitempty"`
	FairnessWindow int64           `json:"fairness_window,omitempty"`
	Protected      []dining.PhilID `json:"protected,omitempty"`
	M              int             `json:"m,omitempty"`
	Faults         string          `json:"faults,omitempty"`
	Symmetry       bool            `json:"symmetry,omitempty"`
	Shards         int             `json:"shards,omitempty"`
	Workers        int             `json:"workers,omitempty"`
}

// EngineConfig derives the echo from an assembled engine.
func EngineConfig(eng *dining.Engine) Config {
	return Config{
		Fingerprint:    eng.Fingerprint(),
		Topology:       eng.Topology().Name(),
		Phils:          eng.Topology().NumPhilosophers(),
		Forks:          eng.Topology().NumForks(),
		Algorithm:      eng.Algorithm(),
		Scheduler:      eng.Scheduler(),
		Seed:           eng.Seed(),
		MaxSteps:       eng.MaxSteps(),
		MaxStates:      eng.MaxStates(),
		Trials:         eng.TrialCount(),
		FairnessWindow: eng.FairnessWindow(),
		Protected:      eng.Protected(),
		M:              eng.AlgorithmOptions().M,
		Faults:         eng.Faults(),
		Symmetry:       eng.Symmetry(),
		Shards:         eng.Shards(),
		Workers:        eng.Workers(),
	}
}
