package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// This file implements the critical-path analyzer: given a TraceLog of one
// run, it walks a completed invocation's event graph backwards from the
// completion instant and attributes every slice of end-to-end latency to a
// Component — reproducing the paper's component-breakdown figures
// (scheduling overhead for WorkerSP vs MasterSP, data-movement time with
// and without FaaStore).
//
// The walk relies on a contiguity invariant the engine's instrumentation
// maintains: every causal hop (engine queue wait, engine processing slot,
// fabric transfer, executor phase) is recorded as a segment whose start
// equals the previous segment's end. Walking backwards therefore
// partitions [invocation start, invocation end] exactly, so the component
// sums always reconstruct the total latency.

// PathSegment is one concrete slice of the critical path: a component, its
// time window, and — when the segment came from an executor phase — the
// worker it ran on. The bottleneck attributor joins these windows with the
// utilization timelines.
type PathSegment struct {
	Comp   Component
	Start  sim.Time
	End    sim.Time
	Worker string // executor phases only; "" for control-plane segments
}

// Duration reports the segment's width.
func (s PathSegment) Duration() time.Duration { return (s.End - s.Start).Duration() }

// Breakdown attributes one invocation's end-to-end latency to components.
type Breakdown struct {
	Workflow string
	Inv      int64
	Mode     string
	Total    time.Duration
	// ByComponent sums attributed time per component; the values sum to
	// Total (unattributable gaps are charged to CompQueue).
	ByComponent map[Component]time.Duration
	// Segments lists the critical path's concrete time slices, ascending by
	// start time; their widths sum to Total.
	Segments []PathSegment
	// Path lists the critical path's step names, source first.
	Path []string
	// Unattributed is the portion of Total that the walk could not match
	// to a recorded segment (charged to CompQueue in ByComponent). It
	// should be zero; a large value signals missing instrumentation.
	Unattributed time.Duration
}

// invTrace is the per-invocation event index the analyzer works from.
type invTrace struct {
	workflow   string
	mode       string
	start, end sim.Time
	failed     bool
	hasEnd     bool
	phases     []PhaseEvent                // all executor phases
	chains     map[int][]TriggerChainEvent // keyed by To (-1 = finish)
	stepName   map[int]string
}

// indexEvents partitions a log snapshot into per-invocation traces in one
// pass (AnalyzeAll on an N-invocation log would otherwise rescan the whole
// log N times).
func indexEvents(events []Event) map[int64]*invTrace {
	traces := map[int64]*invTrace{}
	at := func(inv int64) *invTrace {
		t := traces[inv]
		if t == nil {
			t = &invTrace{chains: map[int][]TriggerChainEvent{}, stepName: map[int]string{}}
			traces[inv] = t
		}
		return t
	}
	for _, ev := range events {
		switch e := ev.(type) {
		case InvocationEvent:
			t := at(e.Inv)
			t.workflow = e.Workflow
			t.mode = e.Mode
			if e.End {
				t.end = e.At
				t.failed = e.Failed
				t.hasEnd = true
			} else {
				t.start = e.At
			}
		case PhaseEvent:
			t := at(e.Inv)
			t.phases = append(t.phases, e)
			t.stepName[e.Node] = e.Name
		case StepEvent:
			at(e.Inv).stepName[e.Node] = e.Name
		case TriggerChainEvent:
			t := at(e.Inv)
			t.chains[e.To] = append(t.chains[e.To], e)
		}
	}
	return traces
}

// analyzeTrace walks one completed invocation's event graph (t.hasEnd)
// and attributes its latency.
func analyzeTrace(t *invTrace, inv int64) *Breakdown {
	b := &Breakdown{
		Workflow:    t.workflow,
		Inv:         inv,
		Mode:        t.mode,
		Total:       (t.end - t.start).Duration(),
		ByComponent: map[Component]time.Duration{},
	}

	attr := func(c Component, from, to sim.Time, worker string) {
		if to > from {
			b.ByComponent[c] += (to - from).Duration()
			b.Segments = append(b.Segments, PathSegment{Comp: c, Start: from, End: to, Worker: worker})
		}
	}

	// Phase index: per node, phases sorted by End descending for the
	// backward walk; each phase is consumed at most once (zero-width
	// phases would otherwise loop).
	phasesByNode := map[int][]*PhaseEvent{}
	for i := range t.phases {
		p := &t.phases[i]
		phasesByNode[p.Node] = append(phasesByNode[p.Node], p)
	}
	consumed := map[*PhaseEvent]bool{}

	// takePhase pops an unconsumed phase of node ending exactly at cursor,
	// preferring the latest-starting one (the innermost hop).
	takePhase := func(node int, cursor sim.Time) *PhaseEvent {
		var best *PhaseEvent
		for _, p := range phasesByNode[node] {
			if consumed[p] || p.End != cursor {
				continue
			}
			if best == nil || p.Start > best.Start {
				best = p
			}
		}
		if best != nil {
			consumed[best] = true
		}
		return best
	}

	// bindingChain pops the chain into `to` whose last segment ends
	// latest without passing cursor.
	usedChains := map[*TriggerChainEvent]bool{}
	bindingChain := func(to int, cursor sim.Time) *TriggerChainEvent {
		var best *TriggerChainEvent
		var bestEnd sim.Time = -1
		cs := t.chains[to]
		for i := range cs {
			c := &cs[i]
			if usedChains[c] || len(c.Segments) == 0 {
				continue
			}
			end := c.Segments[len(c.Segments)-1].End
			if end > cursor {
				continue
			}
			if end > bestEnd {
				best, bestEnd = c, end
			}
		}
		if best != nil {
			usedChains[best] = true
		}
		return best
	}

	// Walk backwards from the invocation end. The finish chain leads to
	// the binding sink; each step's phases lead to its trigger; the
	// binding trigger chain leads to the predecessor; repeat until the
	// ingress chain (From == -1) closes the walk at the invocation start.
	cursor := t.end
	node := -1 // start at the completion pseudo-node
	var path []string
	for steps := 0; steps < 4*len(t.stepName)+8; steps++ {
		ch := bindingChain(node, cursor)
		if ch == nil {
			break
		}
		last := ch.Segments[len(ch.Segments)-1].End
		attr(CompQueue, last, cursor, "") // gap tolerance; zero in practice
		for i := len(ch.Segments) - 1; i >= 0; i-- {
			s := ch.Segments[i]
			attr(s.Comp, s.Start, s.End, "")
		}
		cursor = ch.Segments[0].Start
		node = ch.From
		if node == -1 {
			break // ingress chain: cursor is now the invocation start
		}
		if name, ok := t.stepName[node]; ok {
			path = append(path, name)
		}
		// Attribute the step's executor phases (none for virtual or
		// skipped steps — their trigger instant is their completion).
		for {
			p := takePhase(node, cursor)
			if p == nil {
				break
			}
			attr(p.Comp, p.Start, p.End, p.Worker)
			cursor = p.Start
		}
	}
	// Whatever remains between the invocation start and the walk's last
	// cursor was not covered by recorded segments.
	if cursor > t.start {
		b.Unattributed = (cursor - t.start).Duration()
		b.ByComponent[CompQueue] += b.Unattributed
		b.Segments = append(b.Segments, PathSegment{Comp: CompQueue, Start: t.start, End: cursor})
	}
	// Path and segments were collected sink-to-source; present them
	// source-first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	b.Path = path
	sort.SliceStable(b.Segments, func(i, j int) bool { return b.Segments[i].Start < b.Segments[j].Start })
	return b
}

// AnalyzeAll attributes every completed invocation in the log, indexing
// the log once.
func AnalyzeAll(l *TraceLog) []*Breakdown {
	traces := indexEvents(l.Events())
	invs := make([]int64, 0, len(traces))
	for inv, t := range traces {
		if t.hasEnd {
			invs = append(invs, inv)
		}
	}
	sort.Slice(invs, func(i, j int) bool { return invs[i] < invs[j] })
	out := make([]*Breakdown, 0, len(invs))
	for _, inv := range invs {
		out = append(out, analyzeTrace(traces[inv], inv))
	}
	return out
}

// Summary aggregates breakdowns into per-component means.
type Summary struct {
	Count     int
	MeanTotal time.Duration
	Mean      map[Component]time.Duration
}

// Summarize averages a set of breakdowns (nil-safe; zero Summary for none).
func Summarize(bds []*Breakdown) Summary {
	s := Summary{Mean: map[Component]time.Duration{}}
	if len(bds) == 0 {
		return s
	}
	var total time.Duration
	sums := map[Component]time.Duration{}
	for _, b := range bds {
		total += b.Total
		for c, d := range b.ByComponent {
			sums[c] += d
		}
	}
	n := time.Duration(len(bds))
	s.Count = len(bds)
	s.MeanTotal = total / n
	for c, d := range sums {
		s.Mean[c] = d / n
	}
	return s
}

// String renders the summary as an aligned component table.
func (s Summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical-path attribution over %d invocation(s), mean end-to-end %v\n", s.Count, s.MeanTotal)
	comps := Components()
	sort.SliceStable(comps, func(i, j int) bool { return s.Mean[comps[i]] > s.Mean[comps[j]] })
	for _, c := range comps {
		d := s.Mean[c]
		pct := 0.0
		if s.MeanTotal > 0 {
			pct = 100 * float64(d) / float64(s.MeanTotal)
		}
		fmt.Fprintf(&sb, "  %-9s %12v  %5.1f%%\n", c, d, pct)
	}
	return sb.String()
}
