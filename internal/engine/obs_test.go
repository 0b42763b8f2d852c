package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
)

// observe runs one invocation of bench under mode with a bus + trace log
// attached and returns the log.
func observe(t *testing.T, mode Mode, opts Options) (*obs.TraceLog, Result) {
	t.Helper()
	rt := rig(2, network.MBps(50))
	b := miniBench()
	opts.Mode = mode
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), opts)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	rt.Fabric.SetBus(bus)
	for _, n := range rt.Nodes {
		n.SetBus(bus)
	}
	rt.Store.SetBus(bus)
	d.SetObserver(bus)
	res := run(t, rt, d)
	return log, res
}

func analyze(t *testing.T, log *obs.TraceLog) *obs.Breakdown {
	t.Helper()
	return analyzeInv(t, log, 0)
}

// analyzeInv attributes invocation inv's latency through obs.AnalyzeAll.
func analyzeInv(t *testing.T, log *obs.TraceLog, inv int64) *obs.Breakdown {
	t.Helper()
	bds, err := obs.AnalyzeAll(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range bds {
		if bd.Inv == inv {
			return bd
		}
	}
	t.Fatalf("invocation %d has no recorded completion", inv)
	return nil
}

// checkExact asserts the attribution partitions the whole latency: the
// component sum equals the end-to-end total and nothing was left to the
// gap fallback.
func checkExact(t *testing.T, bd *obs.Breakdown, res Result) {
	t.Helper()
	if bd.Total != res.Latency() {
		t.Fatalf("breakdown total %v != invocation latency %v", bd.Total, res.Latency())
	}
	if bd.Sum() != bd.Total {
		t.Fatalf("component sum %v != total %v (by component: %v)", bd.Sum(), bd.Total, bd.ByComponent)
	}
	if bd.Unattributed != 0 {
		t.Fatalf("unattributed time %v; want 0 (by component: %v)", bd.Unattributed, bd.ByComponent)
	}
}

func TestCritPathExactWorkerSP(t *testing.T) {
	log, res := observe(t, ModeWorkerSP, Options{Data: DataStore})
	bd := analyze(t, log)
	checkExact(t, bd, res)
	if bd.Mode != "WorkerSP" {
		t.Fatalf("mode = %q", bd.Mode)
	}
	if bd.Component(obs.CompExec) < 200*time.Millisecond {
		t.Fatalf("exec on critical path = %v; want >= 2 steps of 85ms+", bd.Component(obs.CompExec))
	}
	if len(bd.Path) == 0 || bd.Path[0] != "a" {
		t.Fatalf("critical path %v; want to start at source a", bd.Path)
	}
}

func TestCritPathExactMasterSP(t *testing.T) {
	log, res := observe(t, ModeMasterSP, Options{Data: DataStore})
	checkExact(t, analyze(t, log), res)
}

func TestCritPathMasterSPHasHigherControlOverhead(t *testing.T) {
	// The paper's core claim (§2.3, §5.2): centralizing trigger processing
	// adds schedule + transfer time to every hop. The breakdown must show
	// MasterSP strictly above WorkerSP on those components. NoJitter so
	// exec time cancels exactly.
	wlog, _ := observe(t, ModeWorkerSP, Options{Data: DataNone, NoJitter: true})
	mlog, _ := observe(t, ModeMasterSP, Options{Data: DataNone, NoJitter: true})
	w, m := analyze(t, wlog), analyze(t, mlog)
	wCtl := w.Component(obs.CompSchedule) + w.Component(obs.CompTransfer)
	mCtl := m.Component(obs.CompSchedule) + m.Component(obs.CompTransfer)
	if mCtl <= wCtl {
		t.Fatalf("MasterSP control time %v <= WorkerSP %v", mCtl, wCtl)
	}
	if m.Component(obs.CompSchedule) <= w.Component(obs.CompSchedule) {
		t.Fatalf("MasterSP schedule %v <= WorkerSP %v",
			m.Component(obs.CompSchedule), w.Component(obs.CompSchedule))
	}
	if m.Total <= w.Total {
		t.Fatalf("MasterSP total %v <= WorkerSP total %v", m.Total, w.Total)
	}
}

func TestCritPathExactWithVirtualNodes(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(2, network.MBps(50))
		b := virtBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: mode, Data: DataStore})
		if err != nil {
			t.Fatal(err)
		}
		bus := obs.NewBus()
		log := obs.NewTraceLog()
		bus.Subscribe(log.Record)
		d.SetObserver(bus)
		res := run(t, rt, d)
		checkExact(t, analyze(t, log), res)
	}
}

func TestCritPathExactWithRetries(t *testing.T) {
	// Crashed attempts re-run acquire/fetch/exec back-to-back; the walk
	// must absorb them without leaving gaps.
	log, res := observe(t, ModeWorkerSP, Options{Data: DataStore, FailureRate: 0.4, MaxAttempts: 5})
	if res.Failed {
		t.Skip("all retries exhausted under this seed; nothing to attribute")
	}
	checkExact(t, analyze(t, log), res)
}

func TestCritPathExactUnderConcurrency(t *testing.T) {
	// Three concurrent invocations contend for engine loops and links;
	// each invocation's own attribution must still be exact.
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeMasterSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	d.SetObserver(bus)
	results := map[int64]Result{}
	for i := 0; i < 3; i++ {
		d.Invoke(func(r Result) { results[r.ID] = r })
	}
	rt.Env.Run()
	invs := log.Invocations()
	if len(invs) != 3 {
		t.Fatalf("completed invocations = %v; want 3", invs)
	}
	for _, inv := range invs {
		bd := analyzeInv(t, log, inv)
		checkExact(t, bd, results[inv])
	}
}

func TestObsStepAndSubstrateEvents(t *testing.T) {
	log, _ := observe(t, ModeWorkerSP, Options{Data: DataStore})
	kinds := map[string]int{}
	for _, ev := range log.Events() {
		kinds[ev.Kind()]++
	}
	for _, want := range []string{"invocation", "step", "phase", "trigger-chain", "container", "store", "msg"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, kinds)
		}
	}
	// 4 steps triggered + 4 completed on the diamond.
	var triggered, completed int
	for _, ev := range log.Events() {
		if se, ok := ev.(obs.StepEvent); ok {
			switch se.State {
			case obs.StepTriggered:
				triggered++
			case obs.StepCompleted:
				completed++
			}
		}
	}
	if triggered != 4 || completed != 4 {
		t.Fatalf("triggered/completed = %d/%d; want 4/4", triggered, completed)
	}
}

func TestObsCollectorEndToEnd(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg)
	bus.Subscribe(col.Handle)
	bus.Subscribe(obs.NewLatencyTracker(col))
	rt.Fabric.SetBus(bus)
	for _, n := range rt.Nodes {
		n.SetBus(bus)
	}
	rt.Store.SetBus(bus)
	d.SetObserver(bus)
	run(t, rt, d)
	text := reg.String()
	for _, want := range []string{
		`faasflow_invocations_total{workflow="mini",mode="WorkerSP",result="ok"} 1`,
		"faasflow_invocation_seconds_count",
		`faasflow_steps_total{workflow="mini",state="completed"} 4`,
		"faasflow_container_events_total",
		"faasflow_store_ops_total",
		"# TYPE faasflow_invocation_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestObsDetachedZeroEvents(t *testing.T) {
	// No observer: publishing must be inert and results identical to an
	// observed run (the bus may not perturb the simulation).
	rt1 := rig(2, network.MBps(50))
	b1 := miniBench()
	d1, err := NewDeployment(rt1, b1, placeRoundRobin(b1, "w0", "w1"),
		Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	plain := run(t, rt1, d1)

	log, observed := observe(t, ModeWorkerSP, Options{Data: DataStore})
	if plain.Latency() != observed.Latency() {
		t.Fatalf("observer changed latency: %v vs %v", plain.Latency(), observed.Latency())
	}
	if log.Len() == 0 {
		t.Fatal("observed run recorded nothing")
	}
}

func TestObsChromeTraceFullSystem(t *testing.T) {
	log, _ := observe(t, ModeWorkerSP, Options{Data: DataStore})
	data, err := obs.ChromeTrace(log)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"ph": "X"`, `"pid": "control"`, `"pid": "store"`, `"ph": "C"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}
}
