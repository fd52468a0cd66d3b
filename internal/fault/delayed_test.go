package fault

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// driveToTake advances philosopher p through its thinking and selection steps
// (always the first outcome) until its next scheduled step would attempt a
// take, i.e. until the wrapped outcome set contains a flight branch.
func driveToTake(t *testing.T, prog sim.Program, w *sim.World, p graph.PhilID) []sim.Outcome {
	t.Helper()
	for i := 0; i < 8; i++ {
		outs := prog.Outcomes(w, p, nil)
		if err := sim.ValidateOutcomes(outs); err != nil {
			t.Fatal(err)
		}
		if outs[len(outs)-1].Label == labelGrantDelayed {
			return outs
		}
		outs[0].Do(w, p)
		w.Step++
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("philosopher %d never reached a fork-acquiring step", p)
	return nil
}

// TestDelayedGrantsLifecycle walks one grant through its whole flight:
// injection replaces the take and reserves the fork, delay branches count the
// flight down, delivery releases the reservation, and the re-executed take
// then succeeds against the fork the reservation kept free.
func TestDelayedGrantsLifecycle(t *testing.T) {
	topo, prog := wrap(t, "delayed-grants:0.5,2", 3)
	w := sim.NewWorld(topo)
	prog.Init(w)

	outs := driveToTake(t, prog, w, 0)
	if len(outs) != 2 {
		t.Fatalf("take-step outcome set = %+v, want scaled take + flight branch", outs)
	}
	if outs[0].Prob != 0.5 || outs[1].Prob != 0.5 || outs[1].Label != labelGrantDelayed {
		t.Fatalf("take-step outcome set = %+v", outs)
	}

	// Inject: the grant enters flight with counter 2.
	outs[1].Do(w, 0)
	w.Step++
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f, delay, ok := w.PendingGrant(0)
	if !ok || delay != 2 {
		t.Fatalf("PendingGrant(0) = (%d, %d, %v), want an in-flight grant with counter 2", f, delay, ok)
	}
	if w.Forks[f].Holder != graph.NoPhil {
		t.Fatalf("reserved fork %d has holder %d", f, w.Forks[f].Holder)
	}
	if w.IsFree(f) {
		t.Fatalf("reserved fork %d reports free", f)
	}

	// The reservation blocks every other adjacent philosopher's take.
	for q := graph.PhilID(0); q < 3; q++ {
		if q == 0 {
			continue
		}
		for _, qf := range topo.Forks(q) {
			if qf == f && w.TryTake(q, qf) {
				t.Fatalf("philosopher %d took reserved fork %d", q, qf)
			}
		}
	}

	// Two delay branches count the flight down to zero.
	for want := uint8(1); ; want-- {
		outs = prog.Outcomes(w, 0, outs[:0])
		if err := sim.ValidateOutcomes(outs); err != nil {
			t.Fatal(err)
		}
		if len(outs) != 2 || outs[0].Label != labelGrantDelivered || outs[1].Label != labelGrantDelayed {
			t.Fatalf("stalled outcome set = %+v", outs)
		}
		outs[1].Do(w, 0)
		w.Step++
		if _, delay, _ = w.PendingGrant(0); delay != want {
			t.Fatalf("after delay branch, counter = %d, want %d", delay, want)
		}
		if want == 0 {
			break
		}
	}

	// At counter zero delivery is forced and releases the reservation...
	outs = prog.Outcomes(w, 0, outs[:0])
	if len(outs) != 1 || outs[0].Prob != 1 || outs[0].Label != labelGrantDelivered {
		t.Fatalf("counter-0 outcome set = %+v, want forced delivery", outs)
	}
	outs[0].Do(w, 0)
	w.Step++
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := w.PendingGrant(0); ok {
		t.Fatal("grant still pending after delivery")
	}
	if !w.IsFree(f) {
		t.Fatalf("fork %d still unavailable after delivery", f)
	}

	// ...and the next scheduled step re-executes the take (with the flight
	// branch injected again — each retry can be delayed anew).
	outs = prog.Outcomes(w, 0, outs[:0])
	if len(outs) != 2 || outs[1].Label != labelGrantDelayed {
		t.Fatalf("post-delivery outcome set = %+v", outs)
	}
	outs[0].Do(w, 0)
	w.Step++
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if w.Forks[f].Holder != 0 {
		t.Fatalf("fork %d holder = %d after re-executed take, want 0", f, w.Forks[f].Holder)
	}
}

// TestDelayedGrantsCertainInjection pins the rate >= 1 shape: the acquiring
// outcome is fully replaced, leaving only the flight branch — no zero-
// probability remnants for ValidateOutcomes to reject.
func TestDelayedGrantsCertainInjection(t *testing.T) {
	topo, prog := wrap(t, "delayed-grants:1,0", 3)
	w := sim.NewWorld(topo)
	prog.Init(w)
	outs := driveToTake(t, prog, w, 0)
	if len(outs) != 1 || outs[0].Prob != 1 || outs[0].Label != labelGrantDelayed {
		t.Fatalf("certain-injection outcome set = %+v, want single flight branch", outs)
	}
	outs[0].Do(w, 0)
	w.Step++
	// Delay bound 0: delivery is forced immediately.
	outs = prog.Outcomes(w, 0, outs[:0])
	if len(outs) != 1 || outs[0].Label != labelGrantDelivered {
		t.Fatalf("counter-0 outcome set = %+v, want forced delivery", outs)
	}
	_ = topo
}

// TestDelayedGrantsZeroRateIsByteIdentical pins the gate the allocation and
// equivalence budgets rely on: a zero-rate delayed-grants engine never
// materializes the pending array, so keys and outcome sets match the base
// program byte for byte.
func TestDelayedGrantsZeroRateIsByteIdentical(t *testing.T) {
	topo, prog := wrap(t, "delayed-grants:0,3", 3)
	base := baseOf(prog)
	w := sim.NewWorld(topo)
	prog.Init(w)
	wb := sim.NewWorld(topo)
	base.Init(wb)
	for step := 0; step < 30; step++ {
		p := graph.PhilID(step % 3)
		got := prog.Outcomes(w, p, nil)
		want := base.Outcomes(wb, p, nil)
		if !outcomesEqual(got, want) {
			t.Fatalf("step %d: outcomes diverge: %+v vs %+v", step, got, want)
		}
		got[0].Do(w, p)
		want[0].Do(wb, p)
		w.Step++
		wb.Step++
		if string(w.AppendKey(nil)) != string(wb.AppendKey(nil)) {
			t.Fatalf("step %d: keys diverge", step)
		}
	}
}
