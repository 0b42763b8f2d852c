package harness

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/workloads"
)

func TestTestbedDefaults(t *testing.T) {
	tb := NewTestbed(ClusterSpec{})
	if len(tb.Workers) != 7 {
		t.Fatalf("workers = %d, want 7", len(tb.Workers))
	}
	if !tb.Fabric.HasNode(MasterNode) {
		t.Fatal("master node missing from fabric")
	}
	for _, w := range tb.Workers {
		if !tb.Fabric.HasNode(w) {
			t.Fatalf("worker %s missing from fabric", w)
		}
		if tb.Runtime.Nodes[w] == nil {
			t.Fatalf("worker %s missing from cluster", w)
		}
	}
}

func TestDeployGrantsQuota(t *testing.T) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	d, err := tb.Deploy(workloads.VideoFFmpeg(), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range tb.Workers {
		q := tb.Mems[w].Quota()
		total += q
		// Each node lent exactly its quota: all of it can be returned, and
		// not a byte more.
		n := tb.Runtime.Nodes[w]
		if err := n.Reclaim(-q); err != nil {
			t.Fatalf("%s: quota %d not reclaimed from container memory: %v", w, q, err)
		}
		if err := n.Reclaim(-1); err == nil {
			t.Fatalf("%s: reclaimed more container memory than its quota %d", w, q)
		}
	}
	if total == 0 {
		t.Fatal("no in-memory quota granted")
	}
	if len(d.Placement.Groups) == 0 {
		t.Fatal("no groups in placement")
	}
}

func TestNoQuotaWithoutFaaStore(t *testing.T) {
	tb := NewTestbed(ClusterSpec{FaaStore: false})
	if _, err := tb.Deploy(workloads.VideoFFmpeg(), engine.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, w := range tb.Workers {
		if tb.Mems[w].Quota() != 0 {
			t.Fatal("quota granted despite FaaStore off")
		}
	}
}

func TestClosedLoopRecordsN(t *testing.T) {
	tb := NewTestbed(ClusterSpec{})
	d, err := tb.Deploy(workloads.WordCount(), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
	if err != nil {
		t.Fatal(err)
	}
	rec := tb.Drive(Client{Target: d.Invoke, Warmup: 2, N: 5})[0].Rec
	if rec.Count() != 5 {
		t.Fatalf("recorded %d samples, want 5 (warmup excluded)", rec.Count())
	}
	if rec.Mean() <= 0 {
		t.Fatal("non-positive mean latency")
	}
}

func TestOpenLoopClampsAtTimeout(t *testing.T) {
	// Flood Cyc through the throttled HyperFlow data path: the queue grows
	// and the recorder must clamp at 60 s.
	tb := NewTestbed(ClusterSpec{StorageBW: network.MBps(25)})
	d, err := tb.Deploy(workloads.Cycles(), engine.Options{Mode: engine.ModeMasterSP, Data: engine.DataStore})
	if err != nil {
		t.Fatal(err)
	}
	rec := tb.Drive(Client{Target: d.Invoke, Arrivals: PerMinute(10), Warmup: 1, N: 20})[0].Rec
	if rec.Count() != 20 {
		t.Fatalf("recorded %d samples, want 20", rec.Count())
	}
	// The driver records raw latencies (chaos and durable runs report them
	// unclamped); open-loop callers clamp at the paper's deadline.
	if rec.Max() <= Timeout {
		t.Fatalf("max %v: overload never passed the deadline", rec.Max())
	}
	rec.Clamp(Timeout)
	if rec.Max() > Timeout {
		t.Fatalf("max %v exceeds clamp", rec.Max())
	}
	if rec.TimeoutRate(Timeout) == 0 {
		t.Fatal("expected timeouts under overload")
	}
}

func TestOpenLoopPoisson(t *testing.T) {
	runOnce := func(seed uint64) []time.Duration {
		tb := NewTestbed(ClusterSpec{FaaStore: true})
		d, err := tb.Deploy(workloads.WordCount(), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
		if err != nil {
			t.Fatal(err)
		}
		rec := tb.Drive(Client{Target: d.Invoke, Arrivals: Poisson(30, seed), Warmup: 1, N: 15})[0].Rec
		if rec.Count() != 15 {
			t.Fatalf("recorded %d, want 15", rec.Count())
		}
		// Every nearest-rank percentile: the sorted samples.
		sorted := make([]time.Duration, 15)
		for i := range sorted {
			sorted[i] = rec.Percentile(float64(i+1) / 15)
		}
		return sorted
	}
	a1, a2, b := runOnce(1), runOnce(1), runOnce(2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same-seed Poisson runs differ")
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival patterns")
	}
}

func TestCoRunDrivesAllClients(t *testing.T) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	var clients []Client
	for _, b := range []*workloads.Benchmark{workloads.WordCount(), workloads.FileProcessing()} {
		d, err := tb.Deploy(b, engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, Client{Target: d.Invoke, Warmup: 1, N: 4})
	}
	for i, r := range tb.Drive(clients...) {
		if r.Rec.Count() != 4 || r.Completed != 4 || r.Lost != 0 {
			t.Fatalf("client %d recorded %d of %d completions (%d lost), want 4", i, r.Rec.Count(), r.Completed, r.Lost)
		}
	}
}

func TestSchedulingOverheadShape(t *testing.T) {
	rows, err := SchedulingOverhead([]System{HyperFlow, FaaSFlow}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Overhead[FaaSFlow] >= r.Overhead[HyperFlow] {
			t.Errorf("%s: FaaSFlow overhead %v >= HyperFlow %v",
				r.Bench, r.Overhead[FaaSFlow], r.Overhead[HyperFlow])
		}
		if r.Overhead[HyperFlow] <= 0 {
			t.Errorf("%s: non-positive HyperFlow overhead", r.Bench)
		}
	}
	// Paper: HyperFlow 712 ms (sci) / 181 ms (apps); FaaSFlow 141.9 / 51.4.
	// Require the same order of magnitude and a large average reduction.
	hSci, hApp := OverheadAverages(rows, HyperFlow)
	fSci, fApp := OverheadAverages(rows, FaaSFlow)
	if hSci < 300*time.Millisecond || hSci > 1500*time.Millisecond {
		t.Errorf("HyperFlow sci overhead = %v, want ~712ms", hSci)
	}
	if hApp < 80*time.Millisecond || hApp > 400*time.Millisecond {
		t.Errorf("HyperFlow app overhead = %v, want ~181ms", hApp)
	}
	if fSci < 50*time.Millisecond || fSci > 350*time.Millisecond {
		t.Errorf("FaaSFlow sci overhead = %v, want ~142ms", fSci)
	}
	reduction := 1 - (fSci.Seconds()+fApp.Seconds())/(hSci.Seconds()+hApp.Seconds())
	if reduction < 0.55 {
		t.Errorf("average overhead reduction = %.2f, paper reports 0.746", reduction)
	}
}

func TestDataMovementShape(t *testing.T) {
	rows, err := DataMovement()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MovementRow{}
	for _, r := range rows {
		byName[r.Bench] = r
		if r.FaaS <= r.Monolithic {
			t.Errorf("%s: FaaS movement %d not above monolithic %d", r.Bench, r.FaaS, r.Monolithic)
		}
	}
	// Paper's quoted values: Cyc 1182.3 MB, Vid 96.82 MB (within 10%).
	cyc := float64(byName["Cyc"].FaaS) / 1e6
	if cyc < 1182.3*0.9 || cyc > 1182.3*1.1 {
		t.Errorf("Cyc FaaS movement = %.1f MB, want ~1182.3", cyc)
	}
	vid := float64(byName["Vid"].FaaS) / 1e6
	if vid < 96.82*0.9 || vid > 96.82*1.1 {
		t.Errorf("Vid FaaS movement = %.1f MB, want ~96.82", vid)
	}
	// Amplification ordering: Cyc > Vid > small apps.
	amp := func(n string) float64 {
		return float64(byName[n].FaaS) / float64(byName[n].Monolithic)
	}
	if amp("Cyc") <= amp("Vid") {
		t.Error("Cyc amplification should exceed Vid's")
	}
	if amp("Vid") <= amp("IR") {
		t.Error("Vid amplification should exceed IR's")
	}
}

func TestTransferLatencyShape(t *testing.T) {
	rows, err := TransferLatency(5)
	if err != nil {
		t.Fatal(err)
	}
	red := map[string]float64{}
	hyper := map[string]time.Duration{}
	for _, r := range rows {
		red[r.Bench] = r.Reduction()
		hyper[r.Bench] = r.HyperFlow
	}
	// Table 4 shape: Cyc's reduction is the largest of the scientific
	// workflows (95% in the paper); Soy's is near zero (5.2%); Gen sits
	// between; no benchmark regresses badly.
	if red["Cyc"] < 0.80 {
		t.Errorf("Cyc reduction = %.2f, want >= 0.80 (paper 0.95)", red["Cyc"])
	}
	if red["Soy"] > 0.30 || red["Soy"] < -0.10 {
		t.Errorf("Soy reduction = %.2f, want near 0.05", red["Soy"])
	}
	if !(red["Soy"] < red["Gen"] && red["Gen"] < red["Cyc"]) {
		t.Errorf("reduction ordering Soy(%.2f) < Gen(%.2f) < Cyc(%.2f) violated",
			red["Soy"], red["Gen"], red["Cyc"])
	}
	// Magnitude ordering of HyperFlow latencies: Cyc dominates everything.
	for _, other := range []string{"Epi", "Gen", "Soy", "Vid", "IR", "FP", "WC"} {
		if hyper["Cyc"] <= hyper[other] {
			t.Errorf("Cyc HyperFlow latency %v not above %s's %v", hyper["Cyc"], other, hyper[other])
		}
	}
}

func TestTailLatencyCycTimeoutShape(t *testing.T) {
	rows, err := TailLatency([]string{"Cyc"}, []System{HyperFlow, FaaSFlowFaaStore},
		[]float64{50}, []float64{6}, 40)
	if err != nil {
		t.Fatal(err)
	}
	var hyper, faas TailRow
	for _, r := range rows {
		if r.Sys == HyperFlow {
			hyper = r
		} else {
			faas = r
		}
	}
	// Paper Fig 13: Cyc times out under HyperFlow at 50 MB/s but completes
	// under FaaSFlow-FaaStore.
	if hyper.P99 < Timeout {
		t.Errorf("HyperFlow Cyc p99 = %v, want 60s timeout", hyper.P99)
	}
	if faas.P99 >= 30*time.Second {
		t.Errorf("FaaSFlow-FaaStore Cyc p99 = %v, want well below timeout", faas.P99)
	}
}

func TestBandwidthSweepShape(t *testing.T) {
	rows, err := TailLatency([]string{"Vid"}, []System{HyperFlow, FaaSFlowFaaStore},
		[]float64{25, 50, 75, 100}, []float64{6}, 30)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys System, bw float64) time.Duration {
		for _, r := range rows {
			if r.Sys == sys && r.StorageMB == bw {
				return r.P99
			}
		}
		t.Fatalf("row %v/%v missing", sys, bw)
		return 0
	}
	// HyperFlow improves with bandwidth.
	if !(get(HyperFlow, 25) > get(HyperFlow, 100)) {
		t.Error("HyperFlow p99 did not improve with bandwidth")
	}
	// FaaSFlow-FaaStore is insensitive: 25 vs 100 within 20%.
	lo, hi := get(FaaSFlowFaaStore, 25), get(FaaSFlowFaaStore, 100)
	if float64(lo) > 1.2*float64(hi) {
		t.Errorf("FaaSFlow-FaaStore bandwidth-sensitive: %v @25 vs %v @100", lo, hi)
	}
	// The paper's multiplier claim: FaaSFlow-FaaStore at 25 MB/s matches
	// HyperFlow at 100 MB/s (4x bandwidth utilization for Vid).
	if get(FaaSFlowFaaStore, 25) > get(HyperFlow, 100)+time.Second {
		t.Errorf("FaaSFlow@25 (%v) should be comparable to HyperFlow@100 (%v)",
			get(FaaSFlowFaaStore, 25), get(HyperFlow, 100))
	}
}

// TestCoLocationDeterministic reruns Fig 14 in one process: co-running
// workflows put equal-cost steps on shared workers, so same-instant CPU
// completions are common, and every run must print the same table.
func TestCoLocationDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 20; run++ {
		rows, err := CoLocation([]System{HyperFlow, FaaSFlowFaaStore}, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := RenderCoLocation(rows).String()
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d printed a different Fig 14 table:\n%s\nwant:\n%s", run, got, first)
		}
	}
}

func TestCoLocationShape(t *testing.T) {
	rows, err := CoLocation([]System{HyperFlow, FaaSFlowFaaStore}, 6)
	if err != nil {
		t.Fatal(err)
	}
	meanDeg := map[System]float64{}
	n := map[System]int{}
	for _, r := range rows {
		meanDeg[r.Sys] += r.Degradation()
		n[r.Sys]++
	}
	for sys := range meanDeg {
		meanDeg[sys] /= float64(n[sys])
	}
	if n[HyperFlow] != 8 || n[FaaSFlowFaaStore] != 8 {
		t.Fatalf("row counts = %v", n)
	}
	// FaaSFlow-FaaStore alleviates co-location degradation (Fig 14).
	if meanDeg[FaaSFlowFaaStore] >= meanDeg[HyperFlow] {
		t.Errorf("mean degradation FaaSFlow-FaaStore %.2f >= HyperFlow %.2f",
			meanDeg[FaaSFlowFaaStore], meanDeg[HyperFlow])
	}
	if meanDeg[HyperFlow] < 0.20 {
		t.Errorf("HyperFlow mean degradation %.2f too small to be interesting", meanDeg[HyperFlow])
	}
}

func TestSchedulingDistributionShape(t *testing.T) {
	rows, err := SchedulingDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	workersUsed := map[string]bool{}
	for _, r := range rows {
		total := 0
		for w, c := range r.PerWorker {
			total += c
			if c > 0 {
				workersUsed[w] = true
			}
		}
		bench := workloads.ByName(r.Bench)
		if total != bench.Graph.Len() {
			t.Errorf("%s: %d nodes placed, graph has %d", r.Bench, total, bench.Graph.Len())
		}
		// Scientific workflows split across multiple workers at the
		// co-location operating point (paper Fig 15).
		if bench.Scientific {
			spread := 0
			for _, c := range r.PerWorker {
				if c > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Errorf("%s: scientific workflow confined to %d worker(s)", r.Bench, spread)
			}
		}
	}
	if len(workersUsed) < 4 {
		t.Errorf("only %d workers used across all benchmarks", len(workersUsed))
	}
}

func TestSchedulerScalabilityShape(t *testing.T) {
	rows, err := SchedulerScalability([]int{10, 50, 200}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[2].WallTime <= rows[0].WallTime {
		t.Errorf("Schedule(200) %v not slower than Schedule(10) %v",
			rows[2].WallTime, rows[0].WallTime)
	}
	for _, r := range rows {
		if r.Groups == 0 || r.AllocBytes == 0 {
			t.Errorf("row %+v has empty metrics", r)
		}
	}
}

func TestEngineOverheadShape(t *testing.T) {
	rows, err := EngineOverhead([]int{1, 4, 16}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var prevEvents float64
	for i, r := range rows {
		// Engines are cheap (paper: 0.12 cores per worker engine).
		if r.WorkerBusyFrac > 0.2 {
			t.Errorf("workers=%d: worker engine busy %.2f, want small", r.Workers, r.WorkerBusyFrac)
		}
		// Per-invocation event count is independent of cluster size
		// (no extra overhead when scaling up, §5.7).
		if i > 0 && r.EventsPerInv != prevEvents {
			t.Errorf("events/inv changed with cluster size: %v vs %v", r.EventsPerInv, prevEvents)
		}
		prevEvents = r.EventsPerInv
	}
}

func TestFeedbackLoopRedeploys(t *testing.T) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	d, err := tb.Deploy(workloads.Genome(25), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
	if err != nil {
		t.Fatal(err)
	}
	tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: 3})
	p2, err := RefreshPlacement(tb, d)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == nil {
		t.Fatal("nil refreshed placement")
	}
	// The redeployed workflow must still run, on the new version.
	var res engine.Result
	d.Engine.Invoke(func(r engine.Result) { res = r })
	tb.Env.Run()
	if res.Version != 1 {
		t.Fatalf("version = %d after feedback redeploy, want 1", res.Version)
	}
	rec := tb.Drive(Client{Target: d.Invoke, N: 2})[0].Rec
	if rec.Count() != 2 {
		t.Fatal("post-redeploy invocations failed")
	}
}

func TestColdStartStudyShape(t *testing.T) {
	rows, err := ColdStartStudy("WC", []time.Duration{5 * time.Second, 600 * time.Second}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	short, long := rows[0], rows[1]
	// At 2/min (30 s gaps) a 5 s keep-alive expires between invocations:
	// every acquisition is cold. A 600 s keep-alive keeps containers warm.
	if short.ColdFraction < 0.9 {
		t.Errorf("5s keep-alive cold fraction = %.2f, want ~1", short.ColdFraction)
	}
	if long.ColdFraction > 0.2 {
		t.Errorf("600s keep-alive cold fraction = %.2f, want ~0.1 (first invocation only)", long.ColdFraction)
	}
	if short.MeanLatency <= long.MeanLatency {
		t.Errorf("cold-start latency %v not above warm %v", short.MeanLatency, long.MeanLatency)
	}
	if _, err := ColdStartStudy("nope", []time.Duration{time.Second}, 1, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if s := RenderColdStart(rows).String(); len(s) == 0 {
		t.Error("empty cold-start table")
	}
}

func TestEngineMemoryModel(t *testing.T) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	d, err := tb.Deploy(workloads.WordCount(), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
	if err != nil {
		t.Fatal(err)
	}
	tb.Drive(Client{Target: d.Invoke, N: 3})
	var total int64
	for _, w := range tb.Workers {
		m := d.Engine.EngineMemory(w)
		// A closed loop keeps one invocation live at a time.
		nodes := 0
		for _, hosted := range d.Engine.Placement() {
			if hosted == w {
				nodes++
			}
		}
		if want := engine.MemoryModel(nodes, 1); m != want {
			t.Fatalf("%s: engine memory %d, want %d (one live invocation)", w, m, want)
		}
		if m < 40<<20 {
			t.Fatalf("engine memory %d below base footprint", m)
		}
		total += m
	}
	// The engine hosting the sub-graph must cost more than an idle one.
	var withNodes, without int64
	for _, w := range tb.Workers {
		m := d.Engine.EngineMemory(w)
		hosts := false
		for _, hosted := range d.Engine.Placement() {
			if hosted == w {
				hosts = true
			}
		}
		if hosts && withNodes == 0 {
			withNodes = m
		}
		if !hosts && without == 0 {
			without = m
		}
	}
	if withNodes != 0 && without != 0 && withNodes <= without {
		t.Fatalf("hosting engine memory %d <= idle engine %d", withNodes, without)
	}
}

func TestTailLatencyUnknownBenchmark(t *testing.T) {
	if _, err := TailLatency([]string{"nope"}, []System{HyperFlow}, []float64{50}, []float64{6}, 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	ov, err := SchedulingOverhead([]System{FaaSFlow}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderOverhead(ov, []System{FaaSFlow}).String(); len(s) == 0 {
		t.Fatal("empty overhead table")
	}
	dist, err := SchedulingDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderDistribution(dist, []string{"w0"}).String(); len(s) == 0 {
		t.Fatal("empty distribution table")
	}
	if csv := RenderDistribution(dist, []string{"w0"}).CSV(); len(csv) == 0 {
		t.Fatal("empty distribution CSV")
	}
}

func TestSequentialVsDAG(t *testing.T) {
	dagMean, seqMean, err := SequentialVsDAG("Cyc", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Cyc's 45 parallel simulations collapse into a serial chain: the
	// sequence must be far slower than the DAG (paper §2.1's motivation
	// for DAG-based workflows).
	if seqMean < 2*dagMean {
		t.Fatalf("sequence mean %v not >> DAG mean %v", seqMean, dagMean)
	}
	if _, _, err := SequentialVsDAG("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAblationGroupingShape(t *testing.T) {
	algo, hash, err := AblationGrouping("Vid", 5)
	if err != nil {
		t.Fatal(err)
	}
	if algo >= hash {
		t.Fatalf("Algorithm 1 mean %v not below hash partition %v", algo, hash)
	}
	if _, _, err := AblationGrouping("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAblationNetworkShape(t *testing.T) {
	shared, infinite, err := AblationNetwork("Cyc", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Removing bandwidth contention must collapse the baseline's latency:
	// that gap is what the fair-share fabric models.
	if float64(shared) < 1.5*float64(infinite) {
		t.Fatalf("shared %v not well above contention-free %v", shared, infinite)
	}
	if _, _, err := AblationNetwork("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAblationQuotaShape(t *testing.T) {
	res, err := AblationQuota("Cyc", 3)
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive quota captures (nearly) the full benefit of unlimited
	// memory, while a token quota forces data back to the remote store.
	if float64(res.Adaptive) > 1.1*float64(res.Unlimited) {
		t.Fatalf("adaptive %v much worse than unlimited %v", res.Adaptive, res.Unlimited)
	}
	if float64(res.Tiny) < 1.5*float64(res.Adaptive) {
		t.Fatalf("tiny quota %v not well above adaptive %v", res.Tiny, res.Adaptive)
	}
	if _, err := AblationQuota("nope", 1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
