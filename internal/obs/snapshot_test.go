package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fullLog combines the synthetic invocation with substrate events of every
// kind, exercising the whole codec.
func fullLog() *TraceLog {
	l := bottleneckLog()
	l.Record(MsgEvent{From: "w0", To: "master", Bytes: 64, At: 95})
	l.Record(StoreEvent{Op: "put", Key: "k", Worker: "w0", Tier: TierMemory, Bytes: 10, Hit: true, Start: 96, End: 97})
	l.Record(StepEvent{Workflow: "wf", Inv: 0, Node: 0, Name: "first", Worker: "w0", State: StepCompleted, At: 40})
	l.Record(PlacementEvent{Workflow: "wf", Groups: []PlacementGroup{{Worker: "w0", Nodes: 2, Demand: 1.5}}, Iterations: 3, At: 0})
	return l
}

func TestSnapshotRoundTrip(t *testing.T) {
	l := fullLog()
	snap := BuildSnapshot(l, map[string]string{"system": "test"})
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	// Events reconstruct with identical dynamic types and values.
	orig, rec := l.Events(), back.Log().Events()
	if len(orig) != len(rec) {
		t.Fatalf("event count %d -> %d", len(orig), len(rec))
	}
	for i := range orig {
		if !reflect.DeepEqual(orig[i], rec[i]) {
			t.Fatalf("event %d changed:\n  %#v\n  %#v", i, orig[i], rec[i])
		}
	}
	// Re-deriving the snapshot from the reconstructed log yields identical
	// summaries (stats, utilization) — the round-trip invariant the
	// acceptance criteria name.
	snap2 := BuildSnapshot(back.Log(), map[string]string{"system": "test"})
	data2, err := snap2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("snapshot of reconstructed log differs from original")
	}
	if len(back.Workflows) != 1 || back.Workflows[0].Count != 1 || back.Workflows[0].P50Ns != 110 {
		t.Fatalf("workflow stats = %+v", back.Workflows)
	}
	if ws := back.Workflows[0]; ws.Workflow != "wf" || ws.Mode != "WorkerSP" {
		t.Fatalf("workflow stats keyed %q/%q, want wf/WorkerSP", back.Workflows[0].Workflow, back.Workflows[0].Mode)
	}
	if len(back.Utilization) == 0 {
		t.Fatal("snapshot lost utilization summaries")
	}
}

func TestSnapshotVersionCheck(t *testing.T) {
	if _, err := ParseSnapshot([]byte(`{"version": 99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	if _, err := ParseSnapshot([]byte(`not json`)); err == nil {
		t.Fatal("want parse error")
	}
	bad := `{"version": 1, "events": [{"kind": "mystery", "ev": {}}]}`
	if _, err := ParseSnapshot([]byte(bad)); err == nil ||
		!strings.Contains(err.Error(), "mystery") {
		t.Fatalf("want unknown-kind error, got %v", err)
	}
}

func TestDiffIdenticalRunsAreClean(t *testing.T) {
	a := BuildSnapshot(fullLog(), nil)
	b := BuildSnapshot(fullLog(), nil)
	res := Diff(a, b, DiffOptions{})
	if res.Regressions != 0 || res.Improvements != 0 {
		t.Fatalf("identical runs diff dirty: %+v", res)
	}
	for _, d := range res.Deltas {
		if d.Old != d.New {
			t.Fatalf("identical runs produced delta %+v", d)
		}
	}
	if !strings.Contains(res.String(), "0 regression(s)") {
		t.Fatalf("render: %s", res.String())
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	oldS := &Snapshot{Version: SnapshotVersion, Workflows: []WorkflowStats{{
		Workflow: "wf", Mode: "WorkerSP", Count: 10,
		P50Ns: int64(time.Second), P95Ns: int64(time.Second), P99Ns: int64(time.Second), MeanNs: int64(time.Second),
	}}}
	newS := &Snapshot{Version: SnapshotVersion, Workflows: []WorkflowStats{{
		Workflow: "wf", Mode: "WorkerSP", Count: 10,
		P50Ns: int64(2 * time.Second), P95Ns: int64(time.Second), P99Ns: int64(time.Second), MeanNs: int64(time.Second),
	}}}
	res := Diff(oldS, newS, DiffOptions{})
	if res.Regressions != 1 {
		t.Fatalf("regressions = %d; want 1 (p50 doubled)", res.Regressions)
	}
	if !strings.Contains(res.String(), "! wf") {
		t.Fatalf("render missing regression mark:\n%s", res.String())
	}
	// Swapped direction: one improvement, no regression.
	res = Diff(newS, oldS, DiffOptions{})
	if res.Regressions != 0 || res.Improvements != 1 {
		t.Fatalf("reverse diff = %+v", res)
	}
}

func TestDiffNoiseThresholds(t *testing.T) {
	mk := func(p50 time.Duration) *Snapshot {
		return &Snapshot{Version: SnapshotVersion, Workflows: []WorkflowStats{{
			Workflow: "wf", Mode: "m", P50Ns: int64(p50),
		}}}
	}
	// +1% is under the default 2% noise threshold.
	if res := Diff(mk(time.Second), mk(time.Second+10*time.Millisecond), DiffOptions{}); res.Regressions != 0 {
		t.Fatalf("1%% flagged: %+v", res)
	}
	// +5% clears it.
	if res := Diff(mk(time.Second), mk(time.Second+50*time.Millisecond), DiffOptions{}); res.Regressions != 1 {
		t.Fatalf("5%% not flagged: %+v", res)
	}
	// A large relative jump under the absolute floor stays quiet.
	if res := Diff(mk(10*time.Microsecond), mk(20*time.Microsecond), DiffOptions{}); res.Regressions != 0 {
		t.Fatalf("sub-floor jump flagged: %+v", res)
	}
}

func TestDiffFailuresAndMissingGroups(t *testing.T) {
	oldS := &Snapshot{Version: SnapshotVersion, Workflows: []WorkflowStats{
		{Workflow: "a", Mode: "m", Failed: 0},
		{Workflow: "gone", Mode: "m"},
	}}
	newS := &Snapshot{Version: SnapshotVersion, Workflows: []WorkflowStats{
		{Workflow: "a", Mode: "m", Failed: 2},
		{Workflow: "new", Mode: "m"},
	}}
	res := Diff(oldS, newS, DiffOptions{})
	if res.Regressions != 1 {
		t.Fatalf("new failures not flagged: %+v", res)
	}
	if len(res.Missing) != 2 {
		t.Fatalf("missing = %v; want both one-sided groups", res.Missing)
	}
}

// TestTraceLogConcurrentReadDuringPublish exercises the gateway pattern:
// an HTTP handler iterating the log while the simulation keeps appending.
// Run with -race (CI does) to verify the locking.
func TestTraceLogConcurrentReadDuringPublish(t *testing.T) {
	l := NewTraceLog()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range l.Events() {
				_ = ev.Kind()
			}
			l.Workflows()
			_ = l.Len()
		}
	}()
	for i := 0; i < 5000; i++ {
		l.Record(InvocationEvent{Workflow: "wf", Inv: int64(i), At: 0})
		l.Record(InvocationEvent{Workflow: "wf", Inv: int64(i), End: true, At: 10})
	}
	close(stop)
	wg.Wait()
	if l.Len() != 10000 {
		t.Fatalf("len = %d", l.Len())
	}
}

func TestCollectorGaugesZeroAcrossReset(t *testing.T) {
	reg := NewRegistry()
	col := NewCollector(reg)
	col.Handle(ContainerEvent{Node: "w0", Function: "f", Op: ContainerColdStart,
		Containers: 3, MemUsed: 768 << 20, Warm: 1, Queued: 2, At: 5})
	col.Handle(TaskEvent{Node: "w0", Running: 4, Start: true, At: 6})
	col.Handle(NodeCapacityEvent{Node: "w0", Cores: 8, MemBytes: 32 << 30, ContainerMem: 256 << 20})
	col.Handle(LinkCapacityEvent{Node: "w0", EgressBps: 1e8, IngressBps: 1e8})
	col.Handle(FlowEvent{ID: 1, From: "w0", To: "m", Bytes: 5, Active: 1, At: 7})

	text := reg.String()
	for _, want := range []string{
		`faasflow_node_containers{node="w0"} 3`,
		`faasflow_node_running_tasks{node="w0"} 4`,
		`faasflow_node_warm_containers{node="w0",function="f"} 1`,
		`faasflow_fn_queue_depth{node="w0",function="f"} 2`,
		`faasflow_node_cores{node="w0"} 8`,
		`faasflow_link_capacity_bps{node="w0",dir="egress"} 1e+08`,
		`faasflow_active_flows 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	reg.ZeroGauges()
	text = reg.String()
	for _, want := range []string{
		`faasflow_node_containers{node="w0"} 0`,
		`faasflow_node_mem_bytes{node="w0"} 0`,
		`faasflow_node_running_tasks{node="w0"} 0`,
		`faasflow_node_warm_containers{node="w0",function="f"} 0`,
		`faasflow_fn_queue_depth{node="w0",function="f"} 0`,
		`faasflow_active_flows 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("gauge not zeroed, missing %q:\n%s", want, text)
		}
	}
	// Counters survive the reset: they are cumulative by contract.
	if !strings.Contains(text, `faasflow_container_events_total{node="w0",event="cold_start"} 1`) {
		t.Errorf("counter lost on ZeroGauges:\n%s", text)
	}
}

// FuzzParseSnapshot: ParseSnapshot never panics on a malformed snapshot;
// errors are the only acceptable failure mode. The seed carries every
// event kind.
func FuzzParseSnapshot(f *testing.F) {
	data, err := BuildSnapshot(fullLog(), map[string]string{"system": "test"}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"events": [{"kind": "nope", "ev": {}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseSnapshot(data)
	})
}
