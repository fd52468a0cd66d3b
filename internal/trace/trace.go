// Package trace records simulation events and renders system states in the
// style of the paper's figures: an "empty arrow" (->) for a philosopher that
// has committed to a fork without holding it, and a "filled arrow" (=>) for a
// philosopher holding a fork. It is used by the adversary-walk reproduction
// tool (cmd/dpadversary) and by the examples.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Log is an in-memory event recorder. It is safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	events []sim.Event
	limit  int
}

// NewLog returns a Log that keeps at most limit events (0 = unlimited).
func NewLog(limit int) *Log {
	return &Log{limit: limit}
}

// Record implements sim.Recorder.
func (l *Log) Record(e sim.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.limit > 0 && len(l.events) >= l.limit {
		return
	}
	l.events = append(l.events, e)
}

// Events returns a copy of the recorded events.
func (l *Log) Events() []sim.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sim.Event(nil), l.events...)
}

// String renders the full event list, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderState draws the instantaneous state of a world in the notation of the
// paper's figures: for every philosopher its phase and its relation to its
// two forks, and for every fork its holder, nr value and pending requests.
func RenderState(w *sim.World) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d\n", w.Step)
	b.WriteString("  philosophers:\n")
	for p := range w.Phils {
		pid := graph.PhilID(p)
		st := &w.Phils[p]
		phase := st.Phase.String()
		if st.Crashed {
			phase = "crashed"
		}
		fmt.Fprintf(&b, "    P%-3d %-8s %s\n", p, phase, describeArrows(w, pid))
	}
	b.WriteString("  forks:\n")
	for f := 0; f < w.Topo.NumForks(); f++ {
		fid := graph.ForkID(f)
		fs := &w.Forks[f]
		holder := "free"
		if fs.Holder != graph.NoPhil {
			holder = fmt.Sprintf("held by P%d", fs.Holder)
		}
		extras := ""
		if fs.NR != 0 {
			extras += fmt.Sprintf(" nr=%d", fs.NR)
		}
		if reqs := requestList(w, fid); reqs != "" {
			extras += " requests=" + reqs
		}
		fmt.Fprintf(&b, "    f%-3d %s%s\n", f, holder, extras)
	}
	return b.String()
}

// describeArrows renders a philosopher's relation to its forks: "P -> f"
// (committed, the paper's empty arrow), "P => f" (holding, filled arrow), or
// "idle".
func describeArrows(w *sim.World, p graph.PhilID) string {
	st := &w.Phils[p]
	if st.First == graph.NoFork {
		return fmt.Sprintf("(forks f%d, f%d)", w.Topo.Left(p), w.Topo.Right(p))
	}
	var parts []string
	first := st.First
	second := w.Topo.OtherFork(p, first)
	if st.HasFirst {
		parts = append(parts, fmt.Sprintf("=> f%d", first))
	} else {
		parts = append(parts, fmt.Sprintf("-> f%d", first))
	}
	if st.HasSecond {
		parts = append(parts, fmt.Sprintf("=> f%d", second))
	}
	return strings.Join(parts, "  ")
}

func requestList(w *sim.World, f graph.ForkID) string {
	var ids []string
	for _, p := range w.Topo.PhilosophersAt(f) {
		if w.HasRequest(p, f) {
			ids = append(ids, fmt.Sprintf("P%d", p))
		}
	}
	return strings.Join(ids, ",")
}

// StateWalk captures a sequence of rendered states, one per recorded
// snapshot, reproducing the "State 1 ... State N" presentation of the paper's
// figures.
type StateWalk struct {
	titles []string
	states []string
}

// Snapshot appends the current state of w under the given title.
func (sw *StateWalk) Snapshot(title string, w *sim.World) {
	sw.titles = append(sw.titles, title)
	sw.states = append(sw.states, RenderState(w))
}

// Len returns the number of snapshots.
func (sw *StateWalk) Len() int { return len(sw.states) }

// String renders all snapshots in order.
func (sw *StateWalk) String() string {
	var b strings.Builder
	for i := range sw.states {
		fmt.Fprintf(&b, "=== %s ===\n%s\n", sw.titles[i], sw.states[i])
	}
	return b.String()
}

// Summarize produces a compact per-philosopher activity table from a log:
// how many times each philosopher was scheduled, committed, took and released
// forks, and ate.
func Summarize(log *Log, numPhils int) string {
	type row struct {
		scheduled, committed, took, released, ate int
	}
	rows := make([]row, numPhils)
	for _, e := range log.Events() {
		if int(e.Phil) < 0 || int(e.Phil) >= numPhils {
			continue
		}
		r := &rows[e.Phil]
		switch e.Kind {
		case sim.EventScheduled:
			r.scheduled++
		case sim.EventCommitted:
			r.committed++
		case sim.EventTookFork:
			r.took++
		case sim.EventReleasedFork:
			r.released++
		case sim.EventDoneEat:
			r.ate++
		}
	}
	var b strings.Builder
	b.WriteString("phil  scheduled  committed  took  released  meals\n")
	for p, r := range rows {
		fmt.Fprintf(&b, "P%-4d %9d  %9d  %4d  %8d  %5d\n", p, r.scheduled, r.committed, r.took, r.released, r.ate)
	}
	return b.String()
}
