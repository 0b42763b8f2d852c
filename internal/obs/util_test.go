package obs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func sec(s float64) sim.Time { return sim.Time(s * 1e9) }

func TestTimelineStepSemantics(t *testing.T) {
	tl := &Timeline{}
	tl.sample(sec(1), 2)
	tl.sample(sec(3), 5)
	tl.sample(sec(3), 4) // same-instant overwrite: last publish wins
	tl.sample(sec(5), 0)
	if v := tl.ValueAt(sec(0.5)); v != 0 {
		t.Fatalf("value before first sample = %v; want 0", v)
	}
	if v := tl.ValueAt(sec(2)); v != 2 {
		t.Fatalf("value at 2s = %v; want 2", v)
	}
	if v := tl.ValueAt(sec(3)); v != 4 {
		t.Fatalf("value at 3s = %v; want overwrite to 4", v)
	}
	// Integral over [0,6]: 0*1 + 2*2 + 4*2 + 0*1 = 12.
	if got := tl.Integral(sec(0), sec(6)); math.Abs(got-12) > 1e-9 {
		t.Fatalf("integral = %v; want 12", got)
	}
	if got := tl.Mean(sec(0), sec(6)); math.Abs(got-2) > 1e-9 {
		t.Fatalf("mean = %v; want 2", got)
	}
	if got := tl.Max(sec(0), sec(6)); got != 4 {
		t.Fatalf("max = %v; want 4", got)
	}
	// Busy (value > 0) on [1,5] of a 6-second window.
	if got := tl.FracAbove(sec(0), sec(6), 0); math.Abs(got-4.0/6) > 1e-9 {
		t.Fatalf("fracAbove = %v; want 4/6", got)
	}
	// Time-weighted median over [0,6]: values 0 (2s), 2 (2s), 4 (2s) → 2.
	if got := tl.Quantile(sec(0), sec(6), 0.5); got != 2 {
		t.Fatalf("p50 = %v; want 2", got)
	}
	if got := tl.Quantile(sec(0), sec(6), 1); got != 4 {
		t.Fatalf("p100 = %v; want 4", got)
	}
}

func TestOccupancyClampsAndTracksCapacity(t *testing.T) {
	series := &Timeline{}
	series.sample(sec(0), 8)
	series.sample(sec(2), 2)
	capTl := &Timeline{}
	capTl.sample(sec(0), 4)
	// [0,2): 8/4 clamps to 1; [2,4): 2/4 = 0.5 → mean 0.75, peak 1.
	mean, peak := occupancy(series, capTl, sec(0), sec(4))
	if math.Abs(mean-0.75) > 1e-9 || peak != 1 {
		t.Fatalf("occupancy = (%v, %v); want (0.75, 1)", mean, peak)
	}
	// Uncapacitated: raw values pass through.
	mean, peak = occupancy(series, nil, sec(0), sec(4))
	if math.Abs(mean-5) > 1e-9 || peak != 8 {
		t.Fatalf("raw occupancy = (%v, %v); want (5, 8)", mean, peak)
	}
}

// utilLog synthesizes a substrate event stream: one node (4 cores, tasks
// running 1s–3s), containers, and one flow master→w0 of 100 bytes over
// 2s–4s on 100 B/s links.
func utilLog() *TraceLog {
	l := NewTraceLog()
	l.Record(NodeCapacityEvent{Node: "w0", Cores: 4, MemBytes: 1000, ContainerMem: 250, At: 0})
	l.Record(LinkCapacityEvent{Node: "w0", EgressBps: 100, IngressBps: 100, At: 0})
	l.Record(LinkCapacityEvent{Node: "master", EgressBps: 100, IngressBps: 100, At: 0})
	l.Record(ContainerEvent{Node: "w0", Function: "f", Op: ContainerColdStart,
		Containers: 1, MemUsed: 250, Warm: 0, Queued: 2, At: sec(1)})
	l.Record(TaskEvent{Node: "w0", Running: 2, Start: true, At: sec(1)})
	l.Record(TaskEvent{Node: "w0", Running: 0, At: sec(3)})
	l.Record(FlowEvent{ID: 1, From: "master", To: "w0", Bytes: 100, At: sec(2)})
	l.Record(FlowEvent{ID: 1, From: "master", To: "w0", Bytes: 100, Done: true, Rate: 50, At: sec(4)})
	l.Record(ContainerEvent{Node: "w0", Function: "f", Op: ContainerReleased,
		Containers: 1, MemUsed: 250, Warm: 1, Queued: 0, At: sec(5)})
	return l
}

func TestComputeUtilization(t *testing.T) {
	u := ComputeUtilization(utilLog())
	if u.Start != 0 || u.End != sec(5) {
		t.Fatalf("window = [%v, %v]; want [0, 5s]", u.Start, u.End)
	}
	cpu := u.Resources["node:w0:cpu"]
	if cpu == nil {
		t.Fatal("missing cpu resource")
	}
	// 2 tasks for 2s of a 5s window.
	if got := cpu.Series.Mean(u.Start, u.End); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("cpu mean = %v; want 0.8", got)
	}
	s := u.Summarize(cpu)
	if s.Capacity != 4 || math.Abs(s.BusyFrac-0.4) > 1e-9 {
		t.Fatalf("cpu summary = %+v; want capacity 4, busy 0.4", s)
	}
	// Mean occupancy: 2/4 cores for 2/5 of the time = 0.2.
	if math.Abs(s.MeanOcc-0.2) > 1e-9 {
		t.Fatalf("cpu meanOcc = %v; want 0.2", s.MeanOcc)
	}

	// Link: 100 bytes spread over [2s,4s] = 50 B/s on both endpoints.
	in := u.Resources["link:w0:ingress"]
	if in == nil || in.Bytes != 100 {
		t.Fatalf("ingress bytes = %+v; want 100", in)
	}
	if got := in.Series.ValueAt(sec(3)); math.Abs(got-50) > 1e-9 {
		t.Fatalf("ingress rate at 3s = %v; want 50", got)
	}
	// The mean-rate spreading invariant: integral == bytes, exactly the
	// property the harness test checks against fabric counters.
	if got := in.Series.Integral(u.Start, u.End); math.Abs(got-100) > 1e-6 {
		t.Fatalf("ingress integral = %v; want 100", got)
	}
	ls := u.Summarize(in)
	if math.Abs(ls.BusyFrac-0.4) > 1e-9 || math.Abs(ls.PeakOcc-0.5) > 1e-9 {
		t.Fatalf("link summary = %+v; want busy 0.4, peakOcc 0.5", ls)
	}

	// Queue depth and warm counts come from container events.
	q := u.Resources["queue:w0:f"]
	if q == nil || q.Series.ValueAt(sec(2)) != 2 || q.Series.ValueAt(sec(5)) != 0 {
		t.Fatalf("queue series wrong: %+v", q)
	}
	warm := u.Resources["node:w0:warm"]
	if warm == nil || warm.Series.ValueAt(sec(5)) != 1 {
		t.Fatalf("warm series wrong: %+v", warm)
	}

	// Every busy fraction and mean occupancy must be a fraction.
	for _, rs := range u.Summaries() {
		if rs.BusyFrac < 0 || rs.BusyFrac > 1 || rs.MeanOcc < 0 || rs.MeanOcc > 1 ||
			rs.PeakOcc < 0 || rs.PeakOcc > 1 {
			t.Fatalf("%s out of range: %+v", rs.Name, rs)
		}
	}
}

func TestUtilizationInFlightFlows(t *testing.T) {
	l := NewTraceLog()
	l.Record(FlowEvent{ID: 1, From: "a", To: "b", Bytes: 10, At: 0})
	u := ComputeUtilization(l)
	if u.InFlightFlows != 1 {
		t.Fatalf("inflight = %d; want 1", u.InFlightFlows)
	}
}

// bottleneckLog extends the synthetic invocation with substrate events so
// the exec window (10–40 on w0) sees a saturated w0 CPU and the transfer
// window sees a saturated master egress link.
func bottleneckLog() *TraceLog {
	l := NewTraceLog()
	l.Record(NodeCapacityEvent{Node: "w0", Cores: 2, MemBytes: 1000, ContainerMem: 250, At: 0})
	l.Record(LinkCapacityEvent{Node: "master", EgressBps: 100, IngressBps: 100, At: 0})
	l.Record(TaskEvent{Node: "w0", Running: 4, Start: true, At: 5})
	l.Record(TaskEvent{Node: "w0", Running: 0, At: 100})
	// Flow saturating master egress across both transfer windows (5–10 and
	// 55–70): 2000 bytes over 88ns is far above the 100 B/s capacity, so
	// occupancy clamps to 1 for the flow's whole lifetime.
	l.Record(FlowEvent{ID: 1, From: "master", To: "w0", Bytes: 2000, At: 2})
	l.Record(FlowEvent{ID: 1, From: "master", To: "w0", Bytes: 2000, Done: true, At: 90})
	for _, ev := range synthLog().Events() {
		if pe, ok := ev.(PhaseEvent); ok {
			pe.Worker = "w0"
			l.Record(pe)
			continue
		}
		l.Record(ev)
	}
	return l
}

func TestAttributeBottlenecks(t *testing.T) {
	l := bottleneckLog()
	ibs := AttributeBottlenecks(l)
	if len(ibs) != 1 {
		t.Fatalf("got %d attributions; want 1", len(ibs))
	}
	ib := ibs[0]
	if ib.Workflow != "wf" || ib.Mode != "WorkerSP" {
		t.Fatalf("identity = %+v", ib)
	}
	var total float64
	byComp := map[Component]Hotspot{}
	for _, h := range ib.Hotspots {
		byComp[h.Comp] = h
		total += h.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v; want 1", total)
	}
	// exec ran on w0 whose 2-core CPU had 4 tasks → occupancy clamped to 1.
	exec := byComp[CompExec]
	if exec.Resource != "node:w0:cpu" || exec.Occupancy != 1 {
		t.Fatalf("exec hotspot = %+v; want node:w0:cpu at 1.0", exec)
	}
	// The transfer window (55–70) lies inside the saturating master flow.
	tr := byComp[CompTransfer]
	if tr.Resource != "link:master:egress" || tr.Occupancy != 1 {
		t.Fatalf("transfer hotspot = %+v; want link:master:egress at 1.0", tr)
	}
	// Engine-loop components carry no resource.
	if byComp[CompSchedule].Resource != "" {
		t.Fatalf("schedule hotspot = %+v; want no resource", byComp[CompSchedule])
	}
	if ib.Hotspots[0].Comp != CompExec {
		t.Fatalf("dominant = %+v; want exec", ib.Hotspots[0])
	}

	sums := SummarizeBottlenecks(ibs)
	if len(sums) != 1 || sums[0].Count != 1 || sums[0].Hotspots[0].Comp != CompExec {
		t.Fatalf("summaries = %+v", sums)
	}
	text := sums[0].String()
	for _, want := range []string{"wf WorkerSP", "exec", "node:w0:cpu at 100% occupancy"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary render missing %q:\n%s", want, text)
		}
	}
}
