package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/network"
	"repro/internal/obs"
)

// observe runs one invocation of bench under mode with a bus + trace log
// attached and returns the log.
func observe(t *testing.T, mode Mode, opts Options) (*obs.TraceLog, Result) {
	t.Helper()
	log, res, _ := observeFaults(t, mode, opts, nil)
	return log, res
}

// observeFaults is observe with a fault schedule installed at time zero;
// it also returns the deployment.
func observeFaults(t *testing.T, mode Mode, opts Options, sched faults.Schedule) (*obs.TraceLog, Result, *Deployment) {
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
	if err := faults.NewInjector(rt.Env, rt.Nodes, rt.Fabric, rt.Store, bus).Install(sched); err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	return log, res, d
}

func analyze(t *testing.T, log *obs.TraceLog) *obs.Breakdown {
	t.Helper()
	return analyzeInv(t, log, 0)
}

// analyzeInv attributes invocation inv's latency through obs.AnalyzeAll.
func analyzeInv(t *testing.T, log *obs.TraceLog, inv int64) *obs.Breakdown {
	t.Helper()
	bds := obs.AnalyzeAll(log)
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
	var sum time.Duration
	for _, d := range bd.ByComponent {
		sum += d
	}
	if sum != bd.Total {
		t.Fatalf("component sum %v != total %v (by component: %v)", sum, bd.Total, bd.ByComponent)
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
	if bd.ByComponent[obs.CompExec] < 200*time.Millisecond {
		t.Fatalf("exec on critical path = %v; want >= 2 steps of 85ms+", bd.ByComponent[obs.CompExec])
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
	wCtl := w.ByComponent[obs.CompSchedule] + w.ByComponent[obs.CompTransfer]
	mCtl := m.ByComponent[obs.CompSchedule] + m.ByComponent[obs.CompTransfer]
	if mCtl <= wCtl {
		t.Fatalf("MasterSP control time %v <= WorkerSP %v", mCtl, wCtl)
	}
	if m.ByComponent[obs.CompSchedule] <= w.ByComponent[obs.CompSchedule] {
		t.Fatalf("MasterSP schedule %v <= WorkerSP %v",
			m.ByComponent[obs.CompSchedule], w.ByComponent[obs.CompSchedule])
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
	// w1 dies for good while b runs on it: b is stranded, times out and
	// is re-issued on w0, and d is re-placed there too. The recovery span
	// must close the gap the abandoned attempt left on the critical path.
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		log, res, d := observeFaults(t, mode, Options{Data: DataStore, TaskTimeout: time.Second},
			faults.Schedule{{Kind: faults.NodeDown, Node: "w1", At: 1030 * time.Millisecond}})
		if res.Failed {
			t.Fatalf("%v: invocation failed; want recovery", mode)
		}
		if fs := d.FailureStatsSnapshot(); fs.Reissues == 0 {
			t.Fatalf("%v: no re-issues: %+v", mode, fs)
		}
		bd := analyze(t, log)
		checkExact(t, bd, res)
		if bd.ByComponent[obs.CompRecovery] == 0 {
			t.Fatalf("%v: no recovery time on the critical path: %v", mode, bd.ByComponent)
		}
	}
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
	if len(results) != 3 {
		t.Fatalf("completed invocations = %d; want 3", len(results))
	}
	for inv, res := range results {
		checkExact(t, analyzeInv(t, log, inv), res)
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
