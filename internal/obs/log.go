package obs

import (
	"sort"
	"sync"
)

// TraceLog is a bus subscriber that retains every event in arrival order,
// for trace export and critical-path analysis. Memory is proportional to
// run length; Reset between experiment phases when that matters.
//
// TraceLog is safe for concurrent use: the gateway reads the log from HTTP
// handlers (trace export, utilization, bottleneck reports) while a run may
// still be appending. The simulation itself is single-threaded, so the
// lock is uncontended on the publish path.
type TraceLog struct {
	mu     sync.Mutex
	events []Event
}

// NewTraceLog returns an empty log. Attach it with bus.Subscribe(l.Record).
func NewTraceLog() *TraceLog { return &TraceLog{} }

// Record appends one event; it is the Subscribe handler.
func (l *TraceLog) Record(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Len reports the number of retained events.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards retained events.
func (l *TraceLog) Reset() {
	l.mu.Lock()
	l.events = l.events[:0]
	l.mu.Unlock()
}

// Events returns a copy of the retained events in arrival order, safe to
// iterate while the log keeps growing.
func (l *TraceLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// ForWorkflow returns a new log holding only the events scoped to the
// named workflow — steps, phases, trigger chains, invocations, and
// placements. Substrate events (containers, flows, messages, store ops)
// carry no workflow identity and are dropped.
func (l *TraceLog) ForWorkflow(name string) *TraceLog {
	out := NewTraceLog()
	for _, ev := range l.Events() {
		var wf string
		switch e := ev.(type) {
		case StepEvent:
			wf = e.Workflow
		case PhaseEvent:
			wf = e.Workflow
		case TriggerChainEvent:
			wf = e.Workflow
		case InvocationEvent:
			wf = e.Workflow
		case PlacementEvent:
			wf = e.Workflow
		case RecoveryEvent:
			wf = e.Workflow
		default:
			continue
		}
		if wf == name {
			out.Record(ev)
		}
	}
	return out
}

// Workflows lists the distinct workflow names seen on invocation events.
func (l *TraceLog) Workflows() []string {
	seen := map[string]bool{}
	var out []string
	for _, ev := range l.Events() {
		if ie, ok := ev.(InvocationEvent); ok && !seen[ie.Workflow] {
			seen[ie.Workflow] = true
			out = append(out, ie.Workflow)
		}
	}
	sort.Strings(out)
	return out
}
