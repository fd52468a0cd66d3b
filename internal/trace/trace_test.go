package trace

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestLogRecordsAndFilters(t *testing.T) {
	t.Parallel()
	log := NewLog(0)
	prog, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(graph.Ring(3), prog, sched.NewRoundRobin(), prng.New(1), sim.RunOptions{
		MaxSteps: 500,
		Recorder: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.events) == 0 {
		t.Fatal("no events recorded")
	}
	if !slices.ContainsFunc(log.Events(), func(e sim.Event) bool { return e.Kind == sim.EventDoneEat }) {
		t.Error("expected at least one completed meal event")
	}
	if !strings.Contains(log.String(), "took-fork") {
		t.Error("log string missing expected events")
	}
}

func TestLogLimit(t *testing.T) {
	t.Parallel()
	log := NewLog(5)
	for i := 0; i < 20; i++ {
		log.Record(sim.Event{Step: int64(i), Kind: sim.EventScheduled})
	}
	if len(log.events) != 5 {
		t.Errorf("limited log kept %d events, want 5", len(log.events))
	}
}

func TestRenderStateShowsArrows(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	w := sim.NewWorld(topo)
	w.BecomeHungry(0)
	w.Commit(0, topo.Left(0))
	w.BecomeHungry(1)
	w.Commit(1, topo.Left(1))
	w.TryTake(1, topo.Left(1))
	w.MarkHoldingFirst(1)
	w.SetNR(1, topo.Left(1), 4)
	w.Request(2, topo.Left(2))
	w.BecomeHungry(2)

	out := RenderState(w)
	if !strings.Contains(out, "-> f0") {
		t.Errorf("render missing the committed (empty) arrow:\n%s", out)
	}
	if !strings.Contains(out, "=> f1") {
		t.Errorf("render missing the holding (filled) arrow:\n%s", out)
	}
	if !strings.Contains(out, "held by P1") {
		t.Errorf("render missing fork holder:\n%s", out)
	}
	if !strings.Contains(out, "nr=4") {
		t.Errorf("render missing nr value:\n%s", out)
	}
	if !strings.Contains(out, "requests=P2") {
		t.Errorf("render missing request list:\n%s", out)
	}
}

func TestStateWalk(t *testing.T) {
	t.Parallel()
	topo := graph.Figure1A()
	w := sim.NewWorld(topo)
	var walk StateWalk
	walk.Snapshot("State 1", w)
	w.BecomeHungry(0)
	walk.Snapshot("State 2", w)
	if walk.Len() != 2 {
		t.Errorf("walk length %d, want 2", walk.Len())
	}
	out := walk.String()
	if !strings.Contains(out, "State 1") || !strings.Contains(out, "State 2") {
		t.Errorf("walk rendering missing titles:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	log := NewLog(0)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(graph.Ring(4), prog, sched.NewRoundRobin(), prng.New(2), sim.RunOptions{
		MaxSteps: 2000,
		Recorder: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := Summarize(log, 4)
	if !strings.Contains(table, "P0") || !strings.Contains(table, "meals") {
		t.Errorf("summary table malformed:\n%s", table)
	}
	if res.TotalEats > 0 && !strings.Contains(table, " 1") {
		t.Errorf("summary should reflect meals:\n%s", table)
	}
}
