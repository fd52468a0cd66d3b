package trace

import (
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Step is one move of a counterexample trace: the adversary schedules a
// philosopher and the probabilistic draw of that philosopher's atomic action
// resolves to the outcome with the given index. Phil and Outcome are the
// replayable part of the wire format; Label and Prob are filled in by Build
// for human consumption.
type Step struct {
	// Phil is the scheduled philosopher.
	Phil int `json:"phil"`
	// Outcome is the index of the outcome taken, within the outcome set of
	// the philosopher's next atomic action in the state the step executes in.
	Outcome int `json:"outcome"`
	// Label is the outcome's human-readable description ("commit left").
	Label string `json:"label,omitempty"`
	// Prob is the outcome's probability.
	Prob float64 `json:"prob,omitempty"`
}

// Trace is a replayable counterexample: the scheduler-choice path that leads
// from the initial state of an algorithm on a topology to a state violating
// a property (a deadlock, a dead region, a starvation-trap member). The
// struct is the stable JSON wire format emitted by the property layer and
// the CLI tools; Replay re-executes it and verifies it lands in FinalKey.
type Trace struct {
	// Property names the property the trace refutes ("deadlock-freedom").
	Property string `json:"property,omitempty"`
	// Topology and Algorithm identify the system the trace belongs to.
	Topology  string `json:"topology"`
	Algorithm string `json:"algorithm"`
	// Faults is the canonical fault-model spec the trace was recorded under
	// ("crash-rejoin:0.05,0.5"), empty for unperturbed systems. Replay
	// verifies that the replaying program injects the same faults, and fault
	// branches show up as "fault: "-labelled steps.
	Faults string `json:"faults,omitempty"`
	// Steps is the scheduler-choice path from the initial state.
	Steps []Step `json:"steps"`
	// FinalKey is the hex-encoded canonical key (sim.World.AppendKey) of the
	// state the trace ends in; Replay verifies against it.
	FinalKey string `json:"final_key"`
	// FinalState is the violating state rendered in the arrow notation of
	// the paper's figures (RenderState).
	FinalState string `json:"final_state,omitempty"`
}

// Len returns the number of steps.
func (t *Trace) Len() int { return len(t.Steps) }

// String renders the trace compactly: one line per step plus the rendered
// final state.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "counterexample to %s: %s on %s", t.Property, t.Algorithm, t.Topology)
	if t.Faults != "" {
		fmt.Fprintf(&b, " under %s", t.Faults)
	}
	fmt.Fprintf(&b, ", %d steps\n", len(t.Steps))
	for i, s := range t.Steps {
		fmt.Fprintf(&b, "  %3d. P%d", i+1, s.Phil)
		if s.Label != "" {
			fmt.Fprintf(&b, ": %s", s.Label)
		}
		if s.Prob > 0 && s.Prob < 1 {
			fmt.Fprintf(&b, " (p=%.3g)", s.Prob)
		}
		b.WriteByte('\n')
	}
	if t.FinalState != "" {
		b.WriteString("  final ")
		b.WriteString(strings.ReplaceAll(strings.TrimRight(t.FinalState, "\n"), "\n", "\n  "))
		b.WriteByte('\n')
	}
	return b.String()
}

// run executes steps from the initial state of prog on topo and returns the
// final world. The execution mirrors the model checker's transition
// semantics exactly: the scheduled philosopher's outcome set is computed, the
// indexed outcome is applied, and the step counter advances. fill controls whether each step's
// Label and Prob are (re)written from the executed outcome.
func run(topo *graph.Topology, prog sim.Program, steps []Step, fill bool) (*sim.World, error) {
	if topo == nil || prog == nil {
		return nil, fmt.Errorf("trace: run requires a topology and a program")
	}
	w := sim.NewWorld(topo)
	prog.Init(w)
	var buf []sim.Outcome
	for i := range steps {
		st := &steps[i]
		if st.Phil < 0 || st.Phil >= topo.NumPhilosophers() {
			return nil, fmt.Errorf("trace: step %d schedules philosopher %d, out of range [0, %d)", i, st.Phil, topo.NumPhilosophers())
		}
		p := graph.PhilID(st.Phil)
		buf = prog.Outcomes(w, p, buf[:0])
		if st.Outcome < 0 || st.Outcome >= len(buf) {
			return nil, fmt.Errorf("trace: step %d takes outcome %d of P%d, but the action has %d outcomes", i, st.Outcome, st.Phil, len(buf))
		}
		o := &buf[st.Outcome]
		if fill {
			st.Label = o.Label
			st.Prob = o.Prob
		}
		o.Do(w, p)
		w.Step++
	}
	return w, nil
}

// Build executes the scheduler choices (each step's Phil and Outcome) from
// the initial state of prog on topo and completes the trace: labels and
// probabilities are filled in from the executed outcomes, the final state is
// rendered in the paper's arrow notation, and its canonical key is recorded
// for replay verification. Build takes ownership of steps.
func Build(topo *graph.Topology, prog sim.Program, property string, steps []Step) (*Trace, error) {
	w, err := run(topo, prog, steps, true)
	if err != nil {
		return nil, err
	}
	return &Trace{
		Property:   property,
		Topology:   topo.Name(),
		Algorithm:  prog.Name(),
		Faults:     faultSpec(prog),
		Steps:      steps,
		FinalKey:   hex.EncodeToString(w.AppendKey(nil)),
		FinalState: RenderState(w),
	}, nil
}

// faultSpec returns the canonical fault spec of a fault-wrapped program
// (package fault's wrapper exposes it), or "" for plain algorithms.
func faultSpec(prog sim.Program) string {
	if fs, ok := prog.(interface{ FaultSpec() string }); ok {
		return fs.FaultSpec()
	}
	return ""
}

// Replay re-executes a trace's scheduler choices against prog on topo and
// verifies the run lands in the state the trace reports. It returns the final world on success and an
// error when the trace names a different system, a step is inapplicable, or
// the final state diverges from FinalKey.
func Replay(topo *graph.Topology, prog sim.Program, t *Trace) (*sim.World, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: Replay requires a trace")
	}
	if topo != nil && t.Topology != "" && topo.Name() != t.Topology {
		return nil, fmt.Errorf("trace: trace was recorded on topology %q, not %q", t.Topology, topo.Name())
	}
	if prog != nil && t.Algorithm != "" && prog.Name() != t.Algorithm {
		return nil, fmt.Errorf("trace: trace was recorded for algorithm %q, not %q", t.Algorithm, prog.Name())
	}
	if prog != nil && t.Faults != faultSpec(prog) {
		return nil, fmt.Errorf("trace: trace was recorded under faults %q, not %q", t.Faults, faultSpec(prog))
	}
	steps := append([]Step(nil), t.Steps...)
	w, err := run(topo, prog, steps, false)
	if err != nil {
		return nil, err
	}
	key := hex.EncodeToString(w.AppendKey(nil))
	if key != t.FinalKey {
		return nil, fmt.Errorf("trace: replay diverged after %d steps: final key %s, trace recorded %s", len(t.Steps), key, t.FinalKey)
	}
	return w, nil
}
