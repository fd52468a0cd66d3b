package dining_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/dining"
	"repro/internal/algo"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNewRejectsMalformedFaults pins the eager-validation contract: every
// malformed fault configuration is a construction error of dining.New, not a
// surprise during a run hours later.
func TestNewRejectsMalformedFaults(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		opts []dining.Option
		want string // substring of the error
	}{
		{"unknown model", []dining.Option{dining.WithFaults("meteor-strike")}, `unknown fault model "meteor-strike"`},
		{"negative rate", []dining.Option{dining.WithFaults("crash-rejoin", -0.1)}, "want a probability"},
		{"rate above one", []dining.Option{dining.WithFaults("freeze", 1.5)}, "want a probability"},
		{"too many rates", []dining.Option{dining.WithFaults("freeze", 0.1, 0.2)}, "at most 1 rate"},
		{"bad spec rate", []dining.Option{dining.WithFaults("lossy-grants:zero")}, "bad rate"},
		{"negative target", []dining.Option{dining.WithFaults("freeze"), dining.WithFaultTargets(-1)}, "negative philosopher"},
		{"duplicate target", []dining.Option{dining.WithFaults("freeze"), dining.WithFaultTargets(1, 1)}, "twice"},
		{"unknown target", []dining.Option{dining.WithFaults("freeze"), dining.WithFaultTargets(99)}, "unknown philosopher 99"},
		{"targets without model", []dining.Option{dining.WithFaultTargets(0)}, "require WithFaults"},
		{"rates without model", []dining.Option{dining.WithFaults("", 0.5)}, "require WithFaults"},
	}
	for _, c := range cases {
		_, err := dining.New(dining.Ring(5), dining.GDP1, c.opts...)
		if err == nil {
			t.Errorf("%s: dining.New accepted the malformed fault configuration", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %q, want it to contain %q", c.name, err, c.want)
		}
	}
}

// TestNilFaultEquivalenceGrid pins the zero-cost promise of the fault layer
// across a topology × algorithm grid: an engine with no fault model and an
// engine wrapped in a zero-rate fault model produce byte-identical Check
// verdicts (the wrapper passes every outcome set through untouched, and the
// crashed bit never sets, so the explored key space is the same) and
// bit-identical trial results.
func TestNilFaultEquivalenceGrid(t *testing.T) {
	t.Parallel()
	topologies := []*dining.Topology{dining.Ring(3), dining.Theorem2Minimal()}
	algorithms := []string{dining.LR1, dining.LR2, dining.GDP1, dining.GDP2}
	for _, topo := range topologies {
		for _, alg := range algorithms {
			plain, err := dining.New(topo, alg, dining.WithSeed(7), dining.WithMaxSteps(4_000))
			if err != nil {
				t.Fatal(err)
			}
			zero, err := dining.New(topo, alg, dining.WithSeed(7), dining.WithMaxSteps(4_000),
				dining.WithFaults("crash-rejoin", 0))
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			want, err := plain.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := zero.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// The only permitted difference is the fault annotation itself:
			// the Faults field, the " under <spec>" detail suffix and the
			// counterexample's recorded spec.
			for i := range got {
				if got[i].Faults != "crash-rejoin:0,0.5" {
					t.Errorf("%s/%s: zero-rate result reports faults %q", topo.Name(), alg, got[i].Faults)
				}
				got[i].Faults = ""
				got[i].Detail = strings.TrimSuffix(got[i].Detail, " under crash-rejoin:0,0.5")
				if got[i].Counterexample != nil {
					got[i].Counterexample.Faults = ""
				}
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("%s/%s: zero-rate fault verdicts differ from the fault-free engine:\nwant %s\ngot  %s",
					topo.Name(), alg, wantJSON, gotJSON)
			}

			wantTrials, gotTrials := trialsByIndex(t, plain, 4), trialsByIndex(t, zero, 4)
			for i := range wantTrials {
				if wantTrials[i].TotalEats != gotTrials[i].TotalEats || wantTrials[i].Steps != gotTrials[i].Steps ||
					!reflect.DeepEqual(wantTrials[i].EatsBy, gotTrials[i].EatsBy) {
					t.Errorf("%s/%s: zero-rate trial %d differs from the fault-free engine", topo.Name(), alg, i)
				}
			}
		}
	}
}

// TestDelayedGrantsNilFaultEquivalenceGrid is the delayed-grants instance of
// the zero-cost promise: a zero-rate delayed-grants engine never materializes
// the pending-grant array, so its explored key space, Check verdicts and
// trial results are byte-identical to the fault-free engine's.
func TestDelayedGrantsNilFaultEquivalenceGrid(t *testing.T) {
	t.Parallel()
	topologies := []*dining.Topology{dining.Ring(3), dining.Theorem2Minimal()}
	algorithms := []string{dining.LR1, dining.LR2, dining.GDP1, dining.GDP2}
	for _, topo := range topologies {
		for _, alg := range algorithms {
			plain, err := dining.New(topo, alg, dining.WithSeed(7), dining.WithMaxSteps(4_000))
			if err != nil {
				t.Fatal(err)
			}
			zero, err := dining.New(topo, alg, dining.WithSeed(7), dining.WithMaxSteps(4_000),
				dining.WithFaults("delayed-grants", 0, 3))
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			want, err := plain.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := zero.CheckAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i].Faults != "delayed-grants:0,3" {
					t.Errorf("%s/%s: zero-rate result reports faults %q", topo.Name(), alg, got[i].Faults)
				}
				got[i].Faults = ""
				got[i].Detail = strings.TrimSuffix(got[i].Detail, " under delayed-grants:0,3")
				if got[i].Counterexample != nil {
					got[i].Counterexample.Faults = ""
				}
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(wantJSON) != string(gotJSON) {
				t.Errorf("%s/%s: zero-rate delayed-grants verdicts differ from the fault-free engine:\nwant %s\ngot  %s",
					topo.Name(), alg, wantJSON, gotJSON)
			}

			wantTrials, gotTrials := trialsByIndex(t, plain, 4), trialsByIndex(t, zero, 4)
			for i := range wantTrials {
				if wantTrials[i].TotalEats != gotTrials[i].TotalEats || wantTrials[i].Steps != gotTrials[i].Steps ||
					!reflect.DeepEqual(wantTrials[i].EatsBy, gotTrials[i].EatsBy) {
					t.Errorf("%s/%s: zero-rate delayed-grants trial %d differs from the fault-free engine", topo.Name(), alg, i)
				}
			}
		}
	}
}

// TestFaultTrialsDeterministicAcrossWorkers pins fault-injection determinism
// for Monte-Carlo trials: the same (seed, fault spec) produces bit-identical
// per-trial results at every worker count.
func TestFaultTrialsDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	const trials = 12
	collect := func(workers int) []dining.TrialResult {
		eng, err := dining.New(dining.Ring(5), dining.GDP2,
			dining.WithSeed(42),
			dining.WithMaxSteps(6_000),
			dining.WithWorkers(workers),
			dining.WithFaults("crash-rejoin", 0.05, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		return trialsByIndex(t, eng, trials)
	}
	want := collect(1)
	for _, workers := range []int{3, 8} {
		got := collect(workers)
		for i := range want {
			if want[i].TotalEats != got[i].TotalEats || want[i].Steps != got[i].Steps ||
				want[i].FirstEatStep != got[i].FirstEatStep ||
				!reflect.DeepEqual(want[i].EatsBy, got[i].EatsBy) {
				t.Errorf("workers=%d: faulty trial %d differs from the sequential run", workers, i)
			}
		}
	}
}

// TestFaultEventSequenceDeterministic pins the stronger per-run contract:
// two engines with the same (seed, fault spec) record the same event
// sequence, fault events included — and fault events actually occur.
func TestFaultEventSequenceDeterministic(t *testing.T) {
	t.Parallel()
	record := func() []sim.Event {
		log := trace.NewLog(0)
		eng, err := dining.New(dining.Ring(5), dining.LR1,
			dining.WithSeed(11),
			dining.WithMaxSteps(3_000),
			dining.WithWorkers(1),
			dining.WithRecorder(log),
			dining.WithFaults("crash-rejoin", 0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return log.Events()
	}
	first := record()
	second := record()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the same (seed, fault spec) produced different event sequences: %d vs %d events", len(first), len(second))
	}
	faultEvents := 0
	for _, e := range first {
		switch e.Kind {
		case sim.EventCrashed, sim.EventRejoined, sim.EventStillCrashed, sim.EventGrantLost:
			faultEvents++
		}
	}
	if faultEvents == 0 {
		t.Error("a 3000-step run at crash rate 0.1 recorded no fault events")
	}
}

// TestFaultCheckDeterministicAcrossWorkersAndShards pins exhaustive-check
// determinism on the perturbed state space: verdicts, details and
// counterexample traces are byte-identical for every (workers, shards)
// configuration.
func TestFaultCheckDeterministicAcrossWorkersAndShards(t *testing.T) {
	t.Parallel()
	run := func(workers, shards int) string {
		eng, err := dining.New(dining.Theorem2Minimal(), dining.LR2,
			dining.WithWorkers(workers),
			dining.WithShards(shards),
			dining.WithFaults("crash-rejoin", 0.1, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CheckAll(context.Background(),
			dining.Progress, dining.ProgressUnderFaults, dining.StarvationTrap)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	want := run(1, 1)
	for _, c := range [][2]int{{2, 4}, {4, 1}, {8, 8}} {
		if got := run(c[0], c[1]); got != want {
			t.Errorf("workers=%d shards=%d: faulty check results differ from the sequential run:\nwant %s\ngot  %s",
				c[0], c[1], want, got)
		}
	}
}

// TestProgressUnderFaultsCounterexampleReplay drives the headline recoverable
// check end to end: under a permanent-crash fault every philosopher can
// freeze, the all-crashed region is a reachable dead end, so the exhaustive
// progress-under-faults check fails — with a counterexample whose path must
// contain the "fault: crash" steps that kill the system — and
// Engine.ReplayTrace verifies the trace step by step, while an engine with
// different faults refuses to replay it.
func TestProgressUnderFaultsCounterexampleReplay(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(3), dining.GDP1, dining.WithFaults("freeze", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CheckAll(context.Background(), dining.ProgressUnderFaults)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Passed {
		t.Fatal("progress-under-faults passed although every philosopher can freeze permanently")
	}
	if r.Faults != "freeze:0.5" {
		t.Errorf("result reports faults %q, want %q", r.Faults, "freeze:0.5")
	}
	if r.Counterexample == nil {
		t.Fatal("failing progress-under-faults produced no counterexample")
	}
	if r.Counterexample.Faults != "freeze:0.5" {
		t.Errorf("counterexample records faults %q, want %q", r.Counterexample.Faults, "freeze:0.5")
	}
	faultSteps := 0
	for _, step := range r.Counterexample.Steps {
		if strings.HasPrefix(step.Label, "fault: ") {
			faultSteps++
		}
	}
	if faultSteps == 0 {
		t.Error("the counterexample contains no fault-labelled steps")
	}
	if err := eng.ReplayTrace(r.Counterexample); err != nil {
		t.Errorf("ReplayTrace rejected the engine's own counterexample: %v", err)
	}

	// A fault-free engine must refuse the trace instead of silently replaying
	// it against the unperturbed transition system.
	plain, err := dining.New(dining.Ring(3), dining.GDP1)
	if err != nil {
		t.Fatal(err)
	}
	err = plain.ReplayTrace(r.Counterexample)
	if err == nil {
		t.Fatal("a fault-free engine replayed a fault counterexample")
	}
	if !strings.Contains(err.Error(), "recorded under faults") {
		t.Errorf("replay error = %q, want it to mention the fault mismatch", err)
	}
}

// TestDelayedGrantsCounterexampleReplay drives the in-flight fault model end
// to end on the exhaustive side: the perturbed state space genuinely grows
// (in-flight grants are new states, not relabelled old ones), the recoverable
// lockout check fails with a counterexample recorded under the spec, and a
// trace whose path goes through injection, delay and delivery branches —
// built on the identical wrapped program — carries the "fault: grant
// delayed"/"fault: grant delivered" labels and replays step by step on the
// engine, while a fault-free engine refuses it.
func TestDelayedGrantsCounterexampleReplay(t *testing.T) {
	t.Parallel()
	const spec = "delayed-grants:0.5,1"
	eng, err := dining.New(dining.Ring(3), dining.LR1, dining.WithFaults(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.CheckAll(context.Background(), dining.LockoutFreedomUnderFaults)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Passed {
		t.Fatal("lockout-freedom-under-faults passed although the adversary can stall grants forever")
	}
	if r.Faults != spec {
		t.Errorf("result reports faults %q, want %q", r.Faults, spec)
	}
	if r.Counterexample == nil {
		t.Fatal("failing lockout-freedom-under-faults produced no counterexample")
	}
	if r.Counterexample.Faults != spec {
		t.Errorf("counterexample records faults %q, want %q", r.Counterexample.Faults, spec)
	}
	if err := eng.ReplayTrace(r.Counterexample); err != nil {
		t.Errorf("ReplayTrace rejected the engine's own counterexample: %v", err)
	}

	// Honest state growth: the in-flight grants must enlarge the explored
	// space over the fault-free exploration of the same system.
	plain, err := dining.New(dining.Ring(3), dining.LR1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := plain.CheckAll(context.Background(), dining.Progress)
	if err != nil {
		t.Fatal(err)
	}
	if r.States <= base[0].States {
		t.Errorf("delayed-grants explored %d states, fault-free %d — in-flight grants added no states", r.States, base[0].States)
	}

	// A path through the flight branches: advance P0 (first outcomes) until
	// its take step offers the injection branch, inject, take the delay
	// branch, then the forced delivery. Build fills labels from the executed
	// outcomes, so the trace must carry the delayed/delivered pair — and it
	// must replay on the engine, whose program injects the same spec.
	topo := dining.Ring(3)
	prog, err := algo.New(dining.LR1, algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := fault.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := model.Wrap(topo, prog)
	w := sim.NewWorld(topo)
	wrapped.Init(w)
	var steps []trace.Step
	var buf []sim.Outcome
	for i := 0; i < 8; i++ {
		buf = wrapped.Outcomes(w, 0, buf[:0])
		if buf[len(buf)-1].Label == "fault: grant delayed" {
			break
		}
		steps = append(steps, trace.Step{Phil: 0, Outcome: 0})
		buf[0].Do(w, 0)
		w.Step++
	}
	flight := len(buf) - 1
	buf[flight].Do(w, 0)
	w.Step++
	steps = append(steps,
		trace.Step{Phil: 0, Outcome: flight}, // grant enters flight (counter 1)
		trace.Step{Phil: 0, Outcome: 1},      // delay branch: counter 1 -> 0
		trace.Step{Phil: 0, Outcome: 0})      // forced delivery
	tr, err := trace.Build(topo, wrapped, dining.LockoutFreedomUnderFaults, steps)
	if err != nil {
		t.Fatal(err)
	}
	var delayed, delivered int
	for _, s := range tr.Steps {
		switch s.Label {
		case "fault: grant delayed":
			delayed++
		case "fault: grant delivered":
			delivered++
		}
	}
	if delayed < 2 || delivered != 1 {
		t.Fatalf("flight trace has %d delayed / %d delivered steps, want >=2 / 1:\n%s", delayed, delivered, tr)
	}
	if err := eng.ReplayTrace(tr); err != nil {
		t.Errorf("ReplayTrace rejected the flight trace: %v", err)
	}
	if err := plain.ReplayTrace(tr); err == nil {
		t.Error("a fault-free engine replayed a delayed-grants trace")
	} else if !strings.Contains(err.Error(), "recorded under faults") {
		t.Errorf("replay error = %q, want it to mention the fault mismatch", err)
	}
}

// TestRecoverablePropertiesRequireFaultModel pins the infrastructure error:
// asking for the under-faults variants on a fault-free engine is a usage
// error, not a trivially passing check.
func TestRecoverablePropertiesRequireFaultModel(t *testing.T) {
	t.Parallel()
	eng, err := dining.New(dining.Ring(3), dining.GDP1)
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range []string{dining.ProgressUnderFaults, dining.LockoutFreedomUnderFaults} {
		_, err := eng.CheckAll(context.Background(), prop)
		if err == nil {
			t.Errorf("%s succeeded on an engine without a fault model", prop)
			continue
		}
		if !strings.Contains(err.Error(), "requires a fault model") {
			t.Errorf("%s: error = %q, want it to mention the missing fault model", prop, err)
		}
	}
}
