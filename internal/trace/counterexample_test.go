package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
)

func TestBuildFillsLabelsAndReplayVerifies(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Schedule P0 twice: become hungry, then the commit coin flip (outcome 0).
	steps := []Step{{Phil: 0, Outcome: 0}, {Phil: 0, Outcome: 0}}
	tr, err := Build(topo, prog, "test-property", steps)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Topology != topo.Name() || tr.Algorithm != "LR1" || tr.Property != "test-property" {
		t.Errorf("trace identity wrong: %+v", tr)
	}
	if tr.Steps[0].Label == "" || tr.Steps[1].Label == "" {
		t.Errorf("Build did not fill outcome labels: %+v", tr.Steps)
	}
	if tr.Steps[1].Prob != 0.5 {
		t.Errorf("the commit step is a fair coin flip; got prob %v", tr.Steps[1].Prob)
	}
	if tr.FinalKey == "" || tr.FinalState == "" {
		t.Error("Build must record the final key and rendered final state")
	}
	if _, err := Replay(topo, prog, tr); err != nil {
		t.Fatalf("replay of a freshly built trace failed: %v", err)
	}
	if s := tr.String(); !strings.Contains(s, "test-property") || !strings.Contains(s, "P0") {
		t.Errorf("String rendering incomplete:\n%s", s)
	}
}

func TestBuildAndReplayRejectBadInput(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(topo, prog, "p", []Step{{Phil: 9, Outcome: 0}}); err == nil {
		t.Error("Build accepted an out-of-range philosopher")
	}
	if _, err := Build(topo, prog, "p", []Step{{Phil: 0, Outcome: 7}}); err == nil {
		t.Error("Build accepted an out-of-range outcome index")
	}
	tr, err := Build(topo, prog, "p", []Step{{Phil: 0, Outcome: 0}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := algo.New("GDP1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(topo, other, tr); err == nil {
		t.Error("Replay accepted a trace recorded for a different algorithm")
	}
	if _, err := Replay(graph.Ring(4), prog, tr); err == nil {
		t.Error("Replay accepted a trace recorded on a different topology")
	}
	bad := *tr
	bad.FinalKey = "ff"
	if _, err := Replay(topo, prog, &bad); err == nil {
		t.Error("Replay accepted a diverging final key")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	t.Parallel()
	topo := graph.Ring(3)
	prog, err := algo.New("LR1", algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(topo, prog, "progress", []Step{{Phil: 0, Outcome: 0}, {Phil: 1, Outcome: 0}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	// The wire format is replayable: a trace decoded from JSON verifies.
	if _, err := Replay(topo, prog, &back); err != nil {
		t.Fatalf("replay of a JSON round-tripped trace failed: %v", err)
	}
}
