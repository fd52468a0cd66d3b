package sim

import (
	"fmt"

	"repro/internal/graph"
)

// EventKind classifies the atomic actions of the algorithms.
type EventKind uint8

const (
	// EventScheduled records that the adversary scheduled a philosopher
	// (emitted once per step by the engine before the action is applied).
	EventScheduled EventKind = iota
	// EventBecameHungry records the end of the thinking section.
	EventBecameHungry
	// Value 2 is reserved (a kept-thinking event, which the saturated
	// workload never emits) so that no later kind changes its value.
	_
	// EventCommitted records a philosopher selecting its first fork (the
	// "empty arrow" of the paper's figures).
	EventCommitted
	// EventTookFork records a successful test-and-set on a fork.
	EventTookFork
	// EventForkBusy records a failed attempt to take a fork (busy wait).
	EventForkBusy
	// EventBlockedByCond records a failed attempt because the courtesy
	// condition Cond(fork) was false (LR2/GDP2 only).
	EventBlockedByCond
	// EventReleasedFork records a fork release.
	EventReleasedFork
	// EventChangedNR records a philosopher re-randomising a fork's nr value
	// (GDP1/GDP2 step "fork.nr := random[1,m]").
	EventChangedNR
	// EventStartEat records the acquisition of the second fork: the
	// philosopher begins eating.
	EventStartEat
	// EventDoneEat records the completion of a meal.
	EventDoneEat
	// EventRequested records insertion into a fork's request list.
	EventRequested
	// EventUnrequested records removal from a fork's request list.
	EventUnrequested
	// EventSignedGuestBook records a signature in a fork's guest book.
	EventSignedGuestBook
	// EventAux records an algorithm-specific auxiliary action (baselines).
	EventAux
	// EventCrashed records a philosopher crashing: a fault model removed it
	// from the protocol and its held forks were dropped.
	EventCrashed
	// EventRejoined records a crashed philosopher re-entering the protocol in
	// the thinking section.
	EventRejoined
	// EventStillCrashed records a crashed philosopher being scheduled while
	// it stays crashed (a fault-layer self-loop).
	EventStillCrashed
	// EventGrantLost records a hungry philosopher's scheduled step no-opping
	// because a fault model lost its fork grant.
	EventGrantLost
	// EventGrantInFlight records a fault model replacing a philosopher's take
	// of a free fork with an in-flight grant (the fork is reserved, the
	// philosopher stalls). Detail is the remaining-delay counter.
	EventGrantInFlight
	// EventGrantDelayed records a stalled philosopher's scheduled step
	// decrementing its in-flight grant's remaining-delay counter. Detail is
	// the counter after the decrement.
	EventGrantDelayed
	// EventGrantDelivered records an in-flight grant arriving: the fork's
	// reservation is released and the philosopher resumes its protocol.
	EventGrantDelivered
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventScheduled:
		return "scheduled"
	case EventBecameHungry:
		return "became-hungry"
	case EventCommitted:
		return "committed"
	case EventTookFork:
		return "took-fork"
	case EventForkBusy:
		return "fork-busy"
	case EventBlockedByCond:
		return "blocked-by-cond"
	case EventReleasedFork:
		return "released-fork"
	case EventChangedNR:
		return "changed-nr"
	case EventStartEat:
		return "start-eat"
	case EventDoneEat:
		return "done-eat"
	case EventRequested:
		return "requested"
	case EventUnrequested:
		return "unrequested"
	case EventSignedGuestBook:
		return "signed-guest-book"
	case EventAux:
		return "aux"
	case EventCrashed:
		return "crashed"
	case EventRejoined:
		return "rejoined"
	case EventStillCrashed:
		return "still-crashed"
	case EventGrantLost:
		return "grant-lost"
	case EventGrantInFlight:
		return "grant-in-flight"
	case EventGrantDelayed:
		return "grant-delayed"
	case EventGrantDelivered:
		return "grant-delivered"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one atomic observable action of the system.
type Event struct {
	Step   int64
	Kind   EventKind
	Phil   graph.PhilID
	Fork   graph.ForkID // graph.NoFork when not applicable
	Detail int64        // event-specific detail (for example the new nr value)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if e.Fork == graph.NoFork {
		return fmt.Sprintf("[%6d] P%d %s", e.Step, e.Phil, e.Kind)
	}
	return fmt.Sprintf("[%6d] P%d %s f%d (%d)", e.Step, e.Phil, e.Kind, e.Fork, e.Detail)
}

// Recorder receives every event emitted by a run. Implementations must be
// cheap; the engine calls Record synchronously.
type Recorder interface {
	Record(Event)
}

// emit records an event if a recorder is installed.
func (w *World) emit(kind EventKind, p graph.PhilID, f graph.ForkID, detail int64) {
	if w.rec == nil {
		return
	}
	w.rec.Record(Event{Step: w.Step, Kind: kind, Phil: p, Fork: f, Detail: detail})
}
