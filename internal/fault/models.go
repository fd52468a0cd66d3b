package fault

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

func init() {
	Register("crash-rejoin", func(cfg Config) (Model, error) {
		return newModel("crash-rejoin", cfg, []float64{0.05, 0.5}, false)
	})
	Register("freeze", func(cfg Config) (Model, error) {
		return newModel("freeze", cfg, []float64{0.05}, false)
	})
	Register("lossy-grants", func(cfg Config) (Model, error) {
		return newModel("lossy-grants", cfg, []float64{0.1}, true)
	})
}

// model implements the three built-in fault models. The crash family
// (crash-rejoin, freeze) injects a crash branch on live philosophers and a
// rejoin/self-loop branch on crashed ones; the lossy family injects a no-op
// branch on hungry philosophers. freeze is crash-rejoin with rejoin pinned
// to 0, which makes a crash absorbing.
type model struct {
	name   string
	lossy  bool
	rates  []float64 // resolved rates, Spec order
	rate   float64   // crash (or loss) probability per scheduled step
	rejoin float64   // rejoin probability per scheduled step (crash family)
	phils  []graph.PhilID
}

// newModel validates and resolves a Config against the model's defaults.
func newModel(name string, cfg Config, defaults []float64, lossy bool) (Model, error) {
	cfg = normalize(cfg)
	rates, err := checkRates(name, cfg.Rates, defaults)
	if err != nil {
		return nil, err
	}
	if err := checkPhils(name, cfg.Phils); err != nil {
		return nil, err
	}
	m := &model{name: name, lossy: lossy, rates: rates, rate: rates[0], phils: cfg.Phils}
	if len(rates) > 1 {
		m.rejoin = rates[1]
	}
	return m, nil
}

// Name implements Model.
func (m *model) Name() string { return m.name }

// Spec implements Model.
func (m *model) Spec() string { return formatSpec(m.name, m.rates, m.phils) }

// Validate implements Model.
func (m *model) Validate(topo *graph.Topology) error {
	return validateTopo(m.name, m.phils, topo)
}

// Wrap implements Model. The target mask is materialized here — Wrap is the
// only place the philosopher count is known — so Outcomes stays a read-only
// O(1) membership test, safe for the model checker's concurrent workers.
func (m *model) Wrap(topo *graph.Topology, prog sim.Program) sim.Program {
	fp := &program{base: prog, model: m}
	if len(m.phils) > 0 {
		fp.target = make([]bool, topo.NumPhilosophers())
		for _, p := range m.phils {
			fp.target[p] = true
		}
	}
	return fp
}

// Fault-outcome labels. The "fault: " prefix marks fault branches in traces
// and counterexamples without any wire-format change.
const (
	// LabelPrefix prefixes the label of every injected fault outcome.
	LabelPrefix = "fault: "

	labelCrash        = LabelPrefix + "crash"
	labelRejoin       = LabelPrefix + "rejoin"
	labelStillCrashed = LabelPrefix + "still crashed"
	labelGrantLost    = LabelPrefix + "grant lost"
)

// The Apply functions of fault outcomes are static, like every algorithm's:
// the outcome sets stay allocation-free and the model checker can re-apply
// outcome i of a recomputed set to a cloned world.

func applyCrash(w *sim.World, p graph.PhilID, _ int64)       { w.Crash(p) }
func applyRejoin(w *sim.World, p graph.PhilID, _ int64)      { w.Rejoin(p) }
func applyStayCrashed(w *sim.World, p graph.PhilID, _ int64) { w.StayCrashed(p) }
func applyLoseGrant(w *sim.World, p graph.PhilID, _ int64)   { w.LoseGrant(p) }

// program is the perturbed transition system: the base algorithm with fault
// branches spliced into each scheduled philosopher's outcome set. It is
// immutable after Wrap and therefore safe to share across exploration
// workers, exactly like the base programs.
type program struct {
	base   sim.Program
	model  *model
	target []bool // nil = every philosopher targeted
}

// Name implements sim.Program: the wrapped program keeps the algorithm's
// name so traces and reports stay attributed to it; the fault model travels
// via FaultSpec.
func (fp *program) Name() string { return fp.base.Name() }

// FaultSpec returns the canonical spec of the injected model. Package trace
// discovers it by interface assertion when recording and replaying
// counterexamples.
func (fp *program) FaultSpec() string { return fp.model.Spec() }

// Init implements sim.Program.
func (fp *program) Init(w *sim.World) { fp.base.Init(w) }

// Symmetric implements sim.Program: targeting a strict subset of the
// philosophers breaks the paper's symmetry condition, an untargeted fault
// model preserves it.
func (fp *program) Symmetric() bool { return fp.base.Symmetric() && fp.target == nil }

// SideSymmetric implements sim.SideSymmetricProgram by forwarding to the
// base algorithm: the crash, rejoin and message-loss branches never mention
// a side, so the wrapper is exactly as left/right symmetric as its base.
func (fp *program) SideSymmetric() bool {
	sp, ok := fp.base.(sim.SideSymmetricProgram)
	return ok && sp.SideSymmetric()
}

// Outcomes implements sim.Program. Crashed philosophers get the rejoin /
// still-crashed branch; live targeted ones get the base outcome set with
// probabilities scaled by (1 - rate) in place plus the appended fault
// branch. Everything goes through the caller's reused buffer, so the
// steady-state step loop stays allocation-free.
func (fp *program) Outcomes(w *sim.World, p graph.PhilID, buf []sim.Outcome) []sim.Outcome {
	if w.IsCrashed(p) {
		switch {
		case fp.model.rejoin >= 1:
			return append(buf, sim.Outcome{Prob: 1, Label: labelRejoin, Apply: applyRejoin})
		case fp.model.rejoin > 0:
			return append(buf,
				sim.Outcome{Prob: fp.model.rejoin, Label: labelRejoin, Apply: applyRejoin},
				sim.Outcome{Prob: 1 - fp.model.rejoin, Label: labelStillCrashed, Apply: applyStayCrashed})
		default:
			return append(buf, sim.Outcome{Prob: 1, Label: labelStillCrashed, Apply: applyStayCrashed})
		}
	}
	if fp.model.rate <= 0 || (fp.target != nil && !fp.target[p]) ||
		(fp.model.lossy && w.Phils[p].Phase != sim.Hungry) {
		return fp.base.Outcomes(w, p, buf)
	}
	injected := sim.Outcome{Prob: fp.model.rate, Label: labelCrash, Apply: applyCrash}
	if fp.model.lossy {
		injected.Label = labelGrantLost
		injected.Apply = applyLoseGrant
	}
	if fp.model.rate >= 1 {
		return append(buf, injected)
	}
	start := len(buf)
	buf = fp.base.Outcomes(w, p, buf)
	for i := start; i < len(buf); i++ {
		buf[i].Prob *= 1 - fp.model.rate
	}
	return append(buf, injected)
}
