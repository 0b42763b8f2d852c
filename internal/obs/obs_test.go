package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// componentSum adds up a breakdown's per-component times.
func componentSum(bd *Breakdown) time.Duration {
	var s time.Duration
	for _, d := range bd.ByComponent {
		s += d
	}
	return s
}

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	// Must not panic.
	b.Publish(MsgEvent{From: "a", To: "b"})
}

func TestBusFanOut(t *testing.T) {
	b := NewBus()
	if b.Active() {
		t.Fatal("empty bus reports active")
	}
	var got1, got2 []string
	b.Subscribe(func(ev Event) { got1 = append(got1, ev.Kind()) })
	b.Subscribe(func(ev Event) { got2 = append(got2, ev.Kind()) })
	if !b.Active() {
		t.Fatal("subscribed bus reports inactive")
	}
	b.Publish(MsgEvent{At: 5})
	b.Publish(StoreEvent{End: 7})
	want := []string{"msg", "store"}
	for i, w := range want {
		if got1[i] != w || got2[i] != w {
			t.Fatalf("subscriber events = %v / %v; want %v", got1, got2, want)
		}
	}
}

func TestComponentStringsAndOrder(t *testing.T) {
	comps := Components()
	if len(comps) != int(numComponents) {
		t.Fatalf("Components() len = %d; want %d", len(comps), numComponents)
	}
	seen := map[string]bool{}
	for _, c := range comps {
		s := c.String()
		if strings.Contains(s, "Component(") {
			t.Fatalf("component %d has no name", c)
		}
		if seen[s] {
			t.Fatalf("duplicate component name %q", s)
		}
		seen[s] = true
	}
}

func TestSegmentDuration(t *testing.T) {
	s := Segment{Comp: CompExec, Start: 100, End: 350}
	if s.Duration() != 250*time.Nanosecond {
		t.Fatalf("duration = %v", s.Duration())
	}
}

func TestTraceLogInvocationsAndWorkflows(t *testing.T) {
	l := NewTraceLog()
	l.Record(InvocationEvent{Workflow: "b", Inv: 1, At: 0})
	l.Record(InvocationEvent{Workflow: "b", Inv: 1, End: true, At: 10})
	l.Record(InvocationEvent{Workflow: "a", Inv: 0, At: 0})
	l.Record(InvocationEvent{Workflow: "a", Inv: 0, End: true, At: 20})
	l.Record(InvocationEvent{Workflow: "c", Inv: 2, At: 5}) // never ends
	wfs := l.Workflows()
	if len(wfs) != 3 || wfs[0] != "a" || wfs[2] != "c" {
		t.Fatalf("workflows = %v", wfs)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

// synthLog builds a hand-made two-step invocation: ingress chain → step 0
// (exec 10–40) → chain → step 1 (exec 70–100) → finish chain at 110.
func synthLog() *TraceLog {
	l := NewTraceLog()
	l.Record(InvocationEvent{Workflow: "wf", Inv: 0, Mode: "WorkerSP", At: 0})
	l.Record(TriggerChainEvent{Workflow: "wf", Inv: 0, From: -1, To: 0, Segments: []Segment{
		{Comp: CompSchedule, Start: 0, End: 5},
		{Comp: CompTransfer, Start: 5, End: 10},
	}})
	l.Record(StepEvent{Workflow: "wf", Inv: 0, Node: 0, Name: "first", State: StepTriggered, At: 10})
	l.Record(PhaseEvent{Workflow: "wf", Inv: 0, Node: 0, Name: "first", Comp: CompExec, Start: 10, End: 40})
	l.Record(TriggerChainEvent{Workflow: "wf", Inv: 0, From: 0, To: 1, Segments: []Segment{
		{Comp: CompSchedule, Start: 40, End: 55},
		{Comp: CompTransfer, Start: 55, End: 70},
	}})
	l.Record(PhaseEvent{Workflow: "wf", Inv: 0, Node: 1, Name: "second", Comp: CompExec, Start: 70, End: 100})
	l.Record(TriggerChainEvent{Workflow: "wf", Inv: 0, From: 1, To: -1, Segments: []Segment{
		{Comp: CompSchedule, Start: 100, End: 110},
	}})
	l.Record(InvocationEvent{Workflow: "wf", Inv: 0, Mode: "WorkerSP", End: true, At: 110})
	return l
}

// analyzeOnly attributes the log's one completed invocation.
func analyzeOnly(t *testing.T, l *TraceLog) *Breakdown {
	t.Helper()
	bds := AnalyzeAll(l)
	if len(bds) != 1 {
		t.Fatalf("%d breakdowns, want 1", len(bds))
	}
	return bds[0]
}

func TestAnalyzeSyntheticExact(t *testing.T) {
	bd := analyzeOnly(t, synthLog())
	if bd.Total != 110*time.Nanosecond {
		t.Fatalf("total = %v", bd.Total)
	}
	if componentSum(bd) != bd.Total || bd.Unattributed != 0 {
		t.Fatalf("sum %v / unattributed %v; want exact partition of %v", componentSum(bd), bd.Unattributed, bd.Total)
	}
	if got := bd.ByComponent[CompExec]; got != 60*time.Nanosecond {
		t.Fatalf("exec = %v; want 60ns", got)
	}
	if got := bd.ByComponent[CompSchedule]; got != 30*time.Nanosecond {
		t.Fatalf("schedule = %v; want 30ns", got)
	}
	if got := bd.ByComponent[CompTransfer]; got != 20*time.Nanosecond {
		t.Fatalf("transfer = %v; want 20ns", got)
	}
	if len(bd.Path) != 2 || bd.Path[0] != "first" || bd.Path[1] != "second" {
		t.Fatalf("path = %v; want [first second]", bd.Path)
	}
}

func TestAnalyzeGapFallsToQueue(t *testing.T) {
	// Remove the middle chain: the walk cannot bridge step 1 back to step
	// 0, so everything before step 1's phase lands in the queue bucket.
	l := NewTraceLog()
	l.Record(InvocationEvent{Inv: 0, At: 0})
	l.Record(PhaseEvent{Inv: 0, Node: 1, Name: "second", Comp: CompExec, Start: 70, End: 100})
	l.Record(TriggerChainEvent{Inv: 0, From: 1, To: -1, Segments: []Segment{
		{Comp: CompSchedule, Start: 100, End: 110},
	}})
	l.Record(InvocationEvent{Inv: 0, End: true, At: 110})
	bd := analyzeOnly(t, l)
	if componentSum(bd) != bd.Total {
		t.Fatalf("sum %v != total %v", componentSum(bd), bd.Total)
	}
	if bd.Unattributed != 70*time.Nanosecond {
		t.Fatalf("unattributed = %v; want 70ns", bd.Unattributed)
	}
	if bd.ByComponent[CompQueue] != 70*time.Nanosecond {
		t.Fatalf("queue = %v; want the 70ns gap", bd.ByComponent[CompQueue])
	}
}

// TestAnalyzeMissingInvocation: an invocation with no recorded completion
// gets no breakdown.
func TestAnalyzeMissingInvocation(t *testing.T) {
	l := NewTraceLog()
	l.Record(InvocationEvent{Inv: 7, At: 0})
	bds := AnalyzeAll(l)
	if len(bds) != 0 {
		t.Fatalf("incomplete invocation analyzed: %+v", bds[0])
	}
}

func TestSummarize(t *testing.T) {
	mk := func(total, exec time.Duration) *Breakdown {
		return &Breakdown{Total: total, ByComponent: map[Component]time.Duration{CompExec: exec}}
	}
	s := Summarize([]*Breakdown{mk(100, 60), mk(200, 80)})
	if s.Count != 2 || s.MeanTotal != 150 || s.Mean[CompExec] != 70 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "exec") {
		t.Fatalf("summary render missing exec: %s", s)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.MeanTotal != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestChromeTraceEmptyLog(t *testing.T) {
	data, err := ChromeTrace(NewTraceLog())
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("empty log renders %q; want []", data)
	}
}

func TestChromeTraceShapes(t *testing.T) {
	l := NewTraceLog()
	l.Record(PhaseEvent{Workflow: "wf", Inv: 3, Node: 1, Name: "step", Replica: 2,
		Comp: CompExec, Worker: "w0", Start: 1000, End: 2000})
	l.Record(FlowEvent{ID: 9, From: "w0", To: "master", Bytes: 1 << 20, Active: 1, At: 1500})
	l.Record(FlowEvent{ID: 9, From: "w0", To: "master", Bytes: 1 << 20, Done: true,
		Rate: 5e7, Active: 0, At: 2500})
	l.Record(ContainerEvent{Node: "w0", Function: "f", Op: ContainerColdStart,
		Containers: 1, MemUsed: 256 << 20, At: 900})
	l.Record(StoreEvent{Op: "get", Key: "k", Worker: "w0", Tier: TierMemory,
		Bytes: 64, Hit: true, Start: 1200, End: 1300})
	data, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{
		`"step#2:exec"`,    // replica suffix on phase span
		`"id": "flow-9"`,   // async pairing id
		`"ph": "b"`,        // flow begin
		`"ph": "e"`,        // flow end
		`"ph": "C"`,        // counter tracks
		`"pid": "network"`, // flow process
		`"pid": "store"`,   // store op process
		`"name": "memory"`, // per-node memory counter
	} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s\n%s", want, s)
		}
	}
}

func TestEventWhen(t *testing.T) {
	cases := []struct {
		ev   Event
		want sim.Time
	}{
		{StepEvent{At: 1}, 1},
		{PhaseEvent{Start: 1, End: 2}, 2},
		{InvocationEvent{At: 3}, 3},
		{TriggerChainEvent{Segments: []Segment{{End: 4}}}, 4},
		{TriggerChainEvent{}, 0},
		{ContainerEvent{At: 5}, 5},
		{NodeCapacityEvent{At: 11}, 11},
		{TaskEvent{At: 12}, 12},
		{LinkCapacityEvent{At: 13}, 13},
		{FlowEvent{At: 6}, 6},
		{MsgEvent{At: 7}, 7},
		{StoreEvent{Start: 7, End: 8}, 8},
		{PlacementEvent{At: 9}, 9},
	}
	for _, c := range cases {
		if c.ev.When() != c.want {
			t.Errorf("%s.When() = %v; want %v", c.ev.Kind(), c.ev.When(), c.want)
		}
	}
}
