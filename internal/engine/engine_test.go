package engine

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// rig builds a runtime with nWorkers workers plus a master/storage node.
func rig(nWorkers int, storageBW network.Bandwidth) *Runtime {
	rt, _ := rigMems(nWorkers, storageBW)
	return rt
}

// rigMems is rig that also hands back each worker's in-memory store.
func rigMems(nWorkers int, storageBW network.Bandwidth) (*Runtime, map[string]*store.MemKV) {
	env := sim.NewEnv()
	fab := network.New(env)
	fab.AddNode("master", storageBW, storageBW)
	nodes := map[string]*cluster.Node{}
	mems := map[string]*store.MemKV{}
	for i := 0; i < nWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		fab.AddNode(id, network.MBps(100), network.MBps(100))
		nodes[id] = cluster.NewNode(env, id, cluster.DefaultConfig())
		mems[id] = store.NewMemKV(env, id, 8<<30)
	}
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	return &Runtime{
		Env:    env,
		Fabric: fab,
		Nodes:  nodes,
		Store:  store.NewHybrid(remote, mems, false),
		Master: "master",
	}, mems
}

// watchRemote records every key the run reads or writes in the remote
// store. The returned function, called after the run, probes each with a
// Get and returns those the store still holds.
func watchRemote(rt *Runtime) func() []string {
	keys := map[string]bool{}
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		if se, ok := ev.(obs.StoreEvent); ok && se.Tier == obs.TierRemote {
			keys[se.Key] = true
		}
	})
	rt.Store.SetBus(bus)
	return func() []string {
		var held []string
		for key := range keys {
			rt.Store.Remote().Get("w0", key, func(_ int64, ok bool) {
				if ok {
					held = append(held, key)
				}
			})
		}
		rt.Env.Run()
		sort.Strings(held)
		return held
	}
}

// miniBench is a 4-node diamond: a -> {b, c} -> d with 1 MB payloads.
func miniBench() *workloads.Benchmark {
	g := dag.New("mini")
	a := g.AddTask("a", "fa")
	b := g.AddTask("b", "fb")
	c := g.AddTask("c", "fc")
	e := g.AddTask("d", "fd")
	g.Connect(a, b, 1<<20)
	g.Connect(a, c, 1<<20)
	g.Connect(b, e, 1<<20)
	g.Connect(c, e, 1<<20)
	fns := map[string]workloads.FunctionSpec{}
	for _, n := range []string{"fa", "fb", "fc", "fd"} {
		fns[n] = workloads.FunctionSpec{Name: n, ExecSeconds: 0.1, MemPeak: 64 << 20}
	}
	return &workloads.Benchmark{Name: "mini", Graph: g, Functions: fns, MonolithicBytes: 1 << 20}
}

// virtBench has a parallel step bracketed by virtual markers:
// a -> vs -> {b, c} -> ve -> d. Data must resolve through the markers.
func virtBench() *workloads.Benchmark {
	g := dag.New("virt")
	a := g.AddTask("a", "fa")
	vs := g.AddVirtual("p:start")
	b := g.AddTask("b", "fb")
	c := g.AddTask("c", "fc")
	ve := g.AddVirtual("p:end")
	e := g.AddTask("d", "fd")
	g.Connect(a, vs, 1<<20)
	g.Connect(vs, b, 1<<20)
	g.Connect(vs, c, 1<<20)
	g.Connect(b, ve, 2<<20)
	g.Connect(c, ve, 2<<20)
	g.Connect(ve, e, 4<<20)
	fns := map[string]workloads.FunctionSpec{}
	for _, n := range []string{"fa", "fb", "fc", "fd"} {
		fns[n] = workloads.FunctionSpec{Name: n, ExecSeconds: 0.05, MemPeak: 64 << 20}
	}
	return &workloads.Benchmark{Name: "virt", Graph: g, Functions: fns, MonolithicBytes: 1 << 20}
}

func placeAll(b *workloads.Benchmark, worker string) map[dag.NodeID]string {
	p := map[dag.NodeID]string{}
	for _, n := range b.Graph.Nodes() {
		p[n.ID] = worker
	}
	return p
}

func placeRoundRobin(b *workloads.Benchmark, workers ...string) map[dag.NodeID]string {
	p := map[dag.NodeID]string{}
	for i, n := range b.Graph.Nodes() {
		p[n.ID] = workers[i%len(workers)]
	}
	return p
}

func run(t *testing.T, rt *Runtime, d *Deployment) Result {
	t.Helper()
	var res Result
	got := false
	d.Invoke(func(r Result) { res = r; got = true })
	rt.Env.Run()
	if !got {
		t.Fatal("invocation never completed")
	}
	return res
}

func TestWorkerSPCompletes(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
	// Latency must be at least the critical execution time (0.3s for the
	// diamond: a+b+d).
	if res.Latency().Seconds() < d.CriticalExecSeconds() {
		t.Fatalf("latency %v < critical exec %v", res.Latency(), d.CriticalExecSeconds())
	}
}

func TestMasterSPCompletes(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeMasterSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, rt, d)
	if res.Latency().Seconds() < d.CriticalExecSeconds() {
		t.Fatalf("latency %v < critical exec %v", res.Latency(), d.CriticalExecSeconds())
	}
}

// The paper's core claim (Fig 11): WorkerSP scheduling overhead is well
// below MasterSP's on the same workload and placement.
func TestWorkerSPBeatsMasterSPOnOverhead(t *testing.T) {
	for _, bench := range []*workloads.Benchmark{miniBench(), workloads.Epigenomics()} {
		overhead := func(mode Mode) float64 {
			rt := rig(7, network.MBps(50))
			workers := make([]string, 7)
			for i := range workers {
				workers[i] = fmt.Sprintf("w%d", i)
			}
			d, err := NewDeployment(rt, bench, placeRoundRobin(bench, workers...), Options{Mode: mode, Data: DataNone})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up containers once, then measure.
			run(t, rt, d)
			res := run(t, rt, d)
			return res.Latency().Seconds() - d.CriticalExecSeconds()
		}
		w, m := overhead(ModeWorkerSP), overhead(ModeMasterSP)
		if w <= 0 || m <= 0 {
			t.Fatalf("%s: non-positive overheads w=%v m=%v", bench.Name, w, m)
		}
		if w >= m {
			t.Errorf("%s: WorkerSP overhead %.3fs >= MasterSP %.3fs", bench.Name, w, m)
		}
	}
}

func TestDataGCAfterInvocation(t *testing.T) {
	rt, mems := rigMems(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	leaked := watchRemote(rt)
	run(t, rt, d)
	if keys := leaked(); len(keys) != 0 {
		t.Fatalf("%d keys leaked in remote store: %v", len(keys), keys)
	}
	for _, w := range []string{"w0", "w1"} {
		if used := mems[w].Used(); used != 0 {
			t.Fatalf("worker %s memory not reclaimed: %d", w, used)
		}
	}
}

func TestCoLocatedPlacementUsesLocalMemory(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	run(t, rt, d)
	if hits := rt.Store.LocalHits(); hits != 4 {
		t.Fatalf("local hits = %d, want 4 (all edges local)", hits)
	}
	if st := rt.Store.Remote().Stats(); st.Puts != 0 {
		t.Fatalf("remote puts = %d, want 0", st.Puts)
	}
}

func TestCrossWorkerPlacementUsesRemote(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	run(t, rt, d)
	if st := rt.Store.Remote().Stats(); st.Puts == 0 || st.Gets == 0 {
		t.Fatalf("remote unused despite cross-worker edges: %+v", st)
	}
}

func TestLocalPlacementIsFasterWithData(t *testing.T) {
	lat := func(place map[dag.NodeID]string) float64 {
		rt := rig(2, network.MBps(25))
		b := VideoLike()
		d, err := NewDeployment(rt, b, place, Options{Mode: ModeWorkerSP, Data: DataStore})
		if err != nil {
			t.Fatal(err)
		}
		run(t, rt, d) // warm
		return run(t, rt, d).Latency().Seconds()
	}
	b := VideoLike()
	local := lat(placeAll(b, "w0"))
	spread := lat(placeRoundRobin(b, "w0", "w1"))
	if local >= spread {
		t.Fatalf("co-located latency %.3fs >= spread %.3fs; FaaStore gain missing", local, spread)
	}
}

// VideoLike is a small fan-out benchmark with meaningful payloads used by
// locality tests (exported for reuse in harness tests).
func VideoLike() *workloads.Benchmark {
	g := dag.New("vidlike")
	src := g.AddTask("src", "f0")
	sink := g.AddTask("sink", "f2")
	for i := 0; i < 4; i++ {
		mid := g.AddTask(fmt.Sprintf("m%d", i), "f1")
		g.Connect(src, mid, 8<<20)
		g.Connect(mid, sink, 4<<20)
	}
	fns := map[string]workloads.FunctionSpec{
		"f0": {Name: "f0", ExecSeconds: 0.05, MemPeak: 64 << 20},
		"f1": {Name: "f1", ExecSeconds: 0.1, MemPeak: 64 << 20},
		"f2": {Name: "f2", ExecSeconds: 0.05, MemPeak: 64 << 20},
	}
	return &workloads.Benchmark{Name: "vidlike", Graph: g, Functions: fns, MonolithicBytes: 8 << 20}
}

func TestVirtualNodesResolveDataflow(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := virtBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	// b and c must each read a's key (through vs); d must read both b's
	// and c's keys (through ve).
	aID, bID, cID, dID := dag.NodeID(0), dag.NodeID(2), dag.NodeID(3), dag.NodeID(5)
	if len(d.inputs[bID]) != 1 || len(d.inputs[cID]) != 1 {
		t.Fatalf("branch inputs = %d/%d, want 1/1", len(d.inputs[bID]), len(d.inputs[cID]))
	}
	if len(d.inputs[dID]) != 2 {
		t.Fatalf("join inputs = %d, want 2", len(d.inputs[dID]))
	}
	if len(d.outputs[aID]) != 1 || len(d.outputs[aID][0].consumers) != 2 {
		t.Fatalf("a outputs = %+v, want 1 edge with 2 consumers", d.outputs[aID])
	}
	leaked := watchRemote(rt)
	res := run(t, rt, d)
	if res.Latency() <= 0 {
		t.Fatal("virtual-marker workflow did not complete")
	}
	if keys := leaked(); len(keys) != 0 {
		t.Fatalf("keys leaked: %v", keys)
	}
}

func TestVirtualBenchBothModes(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt := rig(3, network.MBps(50))
		b := virtBench()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1", "w2"), Options{Mode: mode, Data: DataStore})
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, rt, d)
		if res.Latency() <= 0 {
			t.Fatalf("%v: did not complete", mode)
		}
	}
}

func TestConcurrentInvocations(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	leaked := watchRemote(rt)
	const n = 20
	completed := 0
	ids := map[int64]bool{}
	for i := 0; i < n; i++ {
		i := i
		rt.Env.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			d.Invoke(func(r Result) {
				completed++
				if ids[r.ID] {
					t.Errorf("duplicate invocation ID %d", r.ID)
				}
				ids[r.ID] = true
			})
		})
	}
	rt.Env.Run()
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
	if keys := leaked(); len(keys) != 0 {
		t.Fatalf("keys leaked across concurrent invocations: %v", keys)
	}
}

func TestAllPaperBenchmarksCompleteBothModes(t *testing.T) {
	workers := make([]string, 7)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%d", i)
	}
	for _, b := range workloads.All() {
		for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
			rt := rig(7, network.MBps(50))
			d, err := NewDeployment(rt, b, placeRoundRobin(b, workers...), Options{Mode: mode, Data: DataStore})
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, mode, err)
			}
			res := run(t, rt, d)
			if res.Latency().Seconds() < d.CriticalExecSeconds() {
				t.Errorf("%s/%v: latency %.2fs below critical exec %.2fs",
					b.Name, mode, res.Latency().Seconds(), d.CriticalExecSeconds())
			}
		}
	}
}

func TestRedeployVersioning(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataNone})
	if err != nil {
		t.Fatal(err)
	}
	var v0, v1 int
	d.Invoke(func(r Result) { v0 = r.Version })
	if err := d.Redeploy(placeAll(b, "w1")); err != nil {
		t.Fatal(err)
	}
	d.Invoke(func(r Result) { v1 = r.Version })
	rt.Env.Run()
	if v0 != 0 || v1 != 1 {
		t.Fatalf("versions = %d/%d, want 0/1", v0, v1)
	}
	if d.version != 1 {
		t.Fatalf("Version = %d", d.version)
	}
	if d.liveNow != 0 {
		t.Fatalf("%d invocations still live after the drain", d.liveNow)
	}
}

func TestRedeployRejectsBadPlacement(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Redeploy(map[dag.NodeID]string{}); err == nil {
		t.Error("empty placement accepted")
	}
	if err := d.Redeploy(placeAll(b, "ghost")); err == nil {
		t.Error("unknown worker accepted")
	}
}

func TestNewDeploymentErrors(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	if _, err := NewDeployment(rt, b, map[dag.NodeID]string{}, Options{}); err == nil {
		t.Error("missing placement accepted")
	}
	if _, err := NewDeployment(rt, b, placeAll(b, "nope"), Options{}); err == nil {
		t.Error("unknown worker accepted")
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataNone})
	if err != nil {
		t.Fatal(err)
	}
	run(t, rt, d)
	ms := d.MasterStats()
	if ms.Events == 0 || ms.Busy == 0 {
		t.Fatalf("master stats empty: %+v", ms)
	}
	ws := d.WorkerStats("w0")
	if ws.Events == 0 {
		t.Fatalf("worker stats empty: %+v", ws)
	}
	if d.WorkerStats("ghost").Events != 0 {
		t.Fatal("unknown worker returned stats")
	}
	// WorkerSP should put more events on workers than on the master.
	totalWorker := d.WorkerStats("w0").Events + d.WorkerStats("w1").Events
	if totalWorker <= ms.Events {
		t.Fatalf("WorkerSP worker events %d <= master events %d", totalWorker, ms.Events)
	}
}

func TestMasterSPSerializesAtMaster(t *testing.T) {
	rt := rig(7, network.MBps(50))
	b := workloads.Cycles()
	workers := make([]string, 7)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%d", i)
	}
	d, err := NewDeployment(rt, b, placeRoundRobin(b, workers...), Options{Mode: ModeMasterSP, Data: DataNone})
	if err != nil {
		t.Fatal(err)
	}
	run(t, rt, d)
	ms := d.MasterStats()
	// Every task produces at least two master events (assign context +
	// completion); 50 tasks -> >= 100.
	if ms.Events < 100 {
		t.Fatalf("master events = %d, want >= 100 for a 50-node DAG", ms.Events)
	}
}

func TestModeString(t *testing.T) {
	if ModeWorkerSP.String() != "WorkerSP" || ModeMasterSP.String() != "MasterSP" {
		t.Fatal("mode strings wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Fatal("unknown mode string wrong")
	}
}

func BenchmarkInvokeWorkerSPEpi(b *testing.B) {
	bench := workloads.Epigenomics()
	workers := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := rig(7, network.MBps(50))
		d, err := NewDeployment(rt, bench, placeRoundRobin(bench, workers...), Options{Mode: ModeWorkerSP, Data: DataStore})
		if err != nil {
			b.Fatal(err)
		}
		d.Invoke(nil)
		rt.Env.Run()
	}
}

func TestMasterProcKnobScalesOverhead(t *testing.T) {
	overhead := func(proc time.Duration) float64 {
		rt := rig(4, network.MBps(50))
		b := workloads.Epigenomics()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1", "w2", "w3"),
			Options{Mode: ModeMasterSP, Data: DataNone, MasterProc: proc, NoJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		// Chain warmup + measurement in one event-queue lifetime so warm
		// containers survive (draining the queue fires keep-alive expiry).
		var res Result
		d.Invoke(func(Result) {
			d.Invoke(func(r Result) { res = r })
		})
		rt.Env.Run()
		return res.Latency().Seconds() - d.CriticalExecSeconds()
	}
	slow, fast := overhead(20*time.Millisecond), overhead(2*time.Millisecond)
	// Only master events that block the critical path scale with the knob
	// (the rest overlap with execution), so assert a clear additive gap:
	// ~20 serialized events x 18ms extra each is ~0.35s.
	if slow < fast+0.2 {
		t.Fatalf("20ms master proc overhead %.3fs not clearly above 2ms overhead %.3fs", slow, fast)
	}
}

func TestDataStoreCostsMoreThanDataNone(t *testing.T) {
	lat := func(data DataMode) float64 {
		rt := rig(2, network.MBps(50))
		b := VideoLike()
		d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"),
			Options{Mode: ModeWorkerSP, Data: data, NoJitter: true})
		if err != nil {
			t.Fatal(err)
		}
		run(t, rt, d)
		return run(t, rt, d).Latency().Seconds()
	}
	withData, without := lat(DataStore), lat(DataNone)
	if withData <= without {
		t.Fatalf("DataStore latency %.3fs not above DataNone %.3fs", withData, without)
	}
}
