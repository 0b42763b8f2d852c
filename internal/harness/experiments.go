package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/scheduler"
	"repro/internal/workloads"
)

// System identifies the three configurations the evaluation compares.
type System int

const (
	// HyperFlow is the MasterSP baseline with database-only storage.
	HyperFlow System = iota
	// FaaSFlow is WorkerSP with database-only storage (isolates the
	// scheduling pattern; used in Fig 11).
	FaaSFlow
	// FaaSFlowFaaStore is WorkerSP with the adaptive hybrid store.
	FaaSFlowFaaStore
)

func (s System) String() string {
	switch s {
	case HyperFlow:
		return "HyperFlow-serverless"
	case FaaSFlow:
		return "FaaSFlow"
	case FaaSFlowFaaStore:
		return "FaaSFlow-FaaStore"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

func (s System) mode() engine.Mode {
	if s == HyperFlow {
		return engine.ModeMasterSP
	}
	return engine.ModeWorkerSP
}

func (s System) faastore() bool { return s == FaaSFlowFaaStore }

// newSystemTestbed builds a testbed configured for one system.
func newSystemTestbed(sys System, storageBW network.Bandwidth) *Testbed {
	return NewTestbed(ClusterSpec{StorageBW: storageBW, FaaStore: sys.faastore()})
}

func (tb *Testbed) deploySystem(sys System, bench *workloads.Benchmark, data engine.DataMode) (*Deployment, error) {
	opts := engine.Options{Mode: sys.mode(), Data: data}
	if data == engine.DataNone {
		// The scheduling-overhead methodology (§2.3, §5.2) packs all input
		// data into the container images, so the workflow has no heavy
		// data edges and functions stay hash-spread across the workers —
		// there is nothing for Algorithm 1 to localize. Execution jitter is
		// off because the metric subtracts nominal critical-path exec time.
		opts.NoJitter = true
		return tb.DeployHashed(bench, opts)
	}
	return tb.Deploy(bench, opts)
}

// ---------------------------------------------------------------------------
// Figures 4 and 11: scheduling overhead.

// OverheadRow is one benchmark's scheduling-overhead measurement.
type OverheadRow struct {
	Bench      string
	Scientific bool
	// Overhead per system: mean end-to-end latency minus critical-path
	// execution time, measured with inputs packed in the image (DataNone).
	Overhead map[System]time.Duration
	E2E      map[System]time.Duration
}

// SchedulingOverhead reproduces Fig 4 (HyperFlow only) and Fig 11 (both
// systems): closed-loop invocations with data shipping disabled.
func SchedulingOverhead(systems []System, invocations int) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, bench := range workloads.All() {
		row := OverheadRow{
			Bench:      bench.Name,
			Scientific: bench.Scientific,
			Overhead:   map[System]time.Duration{},
			E2E:        map[System]time.Duration{},
		}
		for _, sys := range systems {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataNone)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bench.Name, sys, err)
			}
			rec := tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec
			mean := rec.Mean()
			crit := time.Duration(d.Engine.CriticalExecSeconds() * float64(time.Second))
			row.E2E[sys] = mean
			row.Overhead[sys] = mean - crit
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// OverheadAverages summarizes rows the way the paper quotes them: mean
// overhead for scientific workflows and for real-world applications.
func OverheadAverages(rows []OverheadRow, sys System) (sci, apps time.Duration) {
	var sciSum, appSum time.Duration
	var sciN, appN int
	for _, r := range rows {
		if r.Scientific {
			sciSum += r.Overhead[sys]
			sciN++
		} else {
			appSum += r.Overhead[sys]
			appN++
		}
	}
	if sciN > 0 {
		sci = sciSum / time.Duration(sciN)
	}
	if appN > 0 {
		apps = appSum / time.Duration(appN)
	}
	return sci, apps
}

// ---------------------------------------------------------------------------
// Figure 5: data movement, monolithic vs FaaS.

// MovementRow is one benchmark's per-invocation data movement.
type MovementRow struct {
	Bench      string
	Monolithic int64 // bytes moved by the monolithic deployment
	FaaS       int64 // bytes measured through the remote store
}

// DataMovement reproduces Fig 5 by running one measured invocation per
// benchmark through the database-only data path and reading the store's
// byte counters.
func DataMovement() ([]MovementRow, error) {
	var rows []MovementRow
	for _, bench := range workloads.All() {
		tb := newSystemTestbed(HyperFlow, network.MBps(200))
		d, err := tb.deploySystem(HyperFlow, bench, engine.DataStore)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		before := tb.Remote.Stats()
		tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: 1})
		after := tb.Remote.Stats()
		moved := (after.BytesPut - before.BytesPut) / 2 // warmup also counted
		moved += (after.BytesGot - before.BytesGot) / 2
		rows = append(rows, MovementRow{
			Bench:      bench.Name,
			Monolithic: bench.MonolithicBytes,
			FaaS:       moved,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 4: total data-movement latency over all edges.

// TransferRow is one benchmark's Table 4 entry.
type TransferRow struct {
	Bench     string
	HyperFlow time.Duration // per-invocation total transfer latency
	FaaStore  time.Duration
}

// Reduction reports the fractional latency cut FaaSFlow-FaaStore achieves.
func (r TransferRow) Reduction() float64 {
	if r.HyperFlow == 0 {
		return 0
	}
	return 1 - float64(r.FaaStore)/float64(r.HyperFlow)
}

// TransferLatency reproduces Table 4: the summed latency of every edge's
// data movement per invocation, under both systems, at the testbed's
// default 50 MB/s storage bandwidth (the §5.4 sweeps vary it).
func TransferLatency(invocations int) ([]TransferRow, error) {
	var rows []TransferRow
	for _, bench := range workloads.All() {
		row := TransferRow{Bench: bench.Name}
		for _, sys := range []System{HyperFlow, FaaSFlowFaaStore} {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bench.Name, sys, err)
			}
			// Warm up (uncounted), then measure the store's cumulative
			// transfer time across the recorded invocations.
			tb.Drive(Client{Target: d.Invoke, Warmup: 1})
			before := tb.Runtime.Store.TransferTime()
			tb.Drive(Client{Target: d.Invoke, N: invocations})
			perInv := (tb.Runtime.Store.TransferTime() - before) / time.Duration(invocations)
			if sys == HyperFlow {
				row.HyperFlow = perInv
			} else {
				row.FaaStore = perInv
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figures 12 and 13: tail latency and throughput under bandwidth limits.

// TailRow is one (benchmark, system, bandwidth, rate) measurement.
type TailRow struct {
	Bench     string
	Sys       System
	StorageMB float64 // storage-node bandwidth in MB/s
	PerMinute float64 // open-loop arrival rate
	P99       time.Duration
	Timeouts  float64 // fraction of invocations at the 60 s clamp
}

// TailLatency measures open-loop p99 latency for the given benchmarks,
// systems, bandwidths (MB/s) and rates (invocations/minute) — Fig 13 is
// the 50 MB/s, 6/min column over all benchmarks; Fig 12 sweeps bandwidth
// and rate for Gen and Vid.
func TailLatency(benches []string, systems []System, bandwidthsMB []float64, rates []float64, invocations int) ([]TailRow, error) {
	var rows []TailRow
	for _, name := range benches {
		bench := workloads.ByName(name)
		if bench == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, sys := range systems {
			for _, bw := range bandwidthsMB {
				for _, rate := range rates {
					tb := newSystemTestbed(sys, network.MBps(bw))
					d, err := tb.deploySystem(sys, workloads.ByName(name), engine.DataStore)
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", name, sys, err)
					}
					rec := tb.Drive(Client{Target: d.Invoke, Arrivals: PerMinute(rate), Warmup: 1, N: invocations})[0].Rec
					rec.Clamp(Timeout)
					rows = append(rows, TailRow{
						Bench:     name,
						Sys:       sys,
						StorageMB: bw,
						PerMinute: rate,
						P99:       rec.P99(),
						Timeouts:  rec.TimeoutRate(Timeout),
					})
				}
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 14: co-location interference.

// CoLocationRow compares a benchmark's solo and co-run latencies.
type CoLocationRow struct {
	Bench string
	Sys   System
	Solo  time.Duration
	CoRun time.Duration
}

// Degradation reports (co-run − solo) / solo.
func (r CoLocationRow) Degradation() float64 {
	if r.Solo == 0 {
		return 0
	}
	return float64(r.CoRun-r.Solo) / float64(r.Solo)
}

// CoLocation reproduces Fig 14: each benchmark measured solo (fresh
// cluster) and with all eight benchmarks co-running in one cluster, per
// system.
func CoLocation(systems []System, invocations int) ([]CoLocationRow, error) {
	var rows []CoLocationRow
	for _, sys := range systems {
		solo := map[string]time.Duration{}
		for _, bench := range workloads.All() {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("solo %s/%s: %w", bench.Name, sys, err)
			}
			solo[bench.Name] = tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})[0].Rec.Mean()
		}
		tb := newSystemTestbed(sys, network.MBps(50))
		var clients []Client
		var names []string
		for _, bench := range workloads.All() {
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("corun %s/%s: %w", bench.Name, sys, err)
			}
			clients = append(clients, Client{Target: d.Invoke, Warmup: 1, N: invocations})
			names = append(names, bench.Name)
		}
		for i, t := range tb.Drive(clients...) {
			rows = append(rows, CoLocationRow{
				Bench: names[i],
				Sys:   sys,
				Solo:  solo[names[i]],
				CoRun: t.Rec.Mean(),
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 15: grouping and scheduling distribution.

// DistributionRow reports how one benchmark's task nodes spread over the
// workers when all eight benchmarks are scheduled into one cluster.
type DistributionRow struct {
	Bench     string
	Groups    int
	PerWorker map[string]int // worker -> task-node count
}

// SchedulingDistribution reproduces Fig 15: schedule all benchmarks into a
// shared cluster and report each one's node distribution. The experiment
// runs at the co-location operating point, where runtime feedback reports
// ~2 scaled container instances per function node (§4.1.2), so large
// workflows split across workers while small apps stay whole.
func SchedulingDistribution() ([]DistributionRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true, ScaleLimit: 96})
	tb.ScaleHint = 2
	var rows []DistributionRow
	for _, bench := range workloads.All() {
		d, err := tb.deploySystem(FaaSFlowFaaStore, bench, engine.DataStore)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		per := map[string]int{}
		for _, n := range bench.Graph.Nodes() {
			per[d.Placement.Worker[n.ID]]++
		}
		rows = append(rows, DistributionRow{
			Bench:     bench.Name,
			Groups:    len(d.Placement.Groups),
			PerWorker: per,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 16: graph scheduler scalability.

// SchedulerCostRow measures one Schedule() call's real cost.
type SchedulerCostRow struct {
	Nodes      int
	WallTime   time.Duration
	AllocBytes uint64
	Groups     int
}

// SchedulerScalability reproduces Fig 16: run the Graph Scheduler on
// Genome instances of growing size and record real CPU time and memory.
// repeats > 1 reports the per-call average.
func SchedulerScalability(sizes []int, repeats int) ([]SchedulerCostRow, error) {
	if repeats < 1 {
		repeats = 1
	}
	var rows []SchedulerCostRow
	for _, n := range sizes {
		bench := workloads.Genome(n)
		in := scheduler.Input{
			Graph: bench.Graph,
			ExecSeconds: func(nd dag.Node) float64 {
				return bench.Functions[nd.Function].ExecSeconds
			},
			Contention: bench.Contention,
			Workers:    []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"},
			Cap:        map[string]int{"w0": 1 << 20, "w1": 1 << 20, "w2": 1 << 20, "w3": 1 << 20, "w4": 1 << 20, "w5": 1 << 20, "w6": 1 << 20},
			Quota:      1 << 40,
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		var groups int
		for r := 0; r < repeats; r++ {
			p, err := scheduler.Schedule(in)
			if err != nil {
				return nil, err
			}
			groups = len(p.Groups)
		}
		wall := time.Since(start) / time.Duration(repeats)
		runtime.ReadMemStats(&ms1)
		rows = append(rows, SchedulerCostRow{
			Nodes:      n,
			WallTime:   wall,
			AllocBytes: (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(repeats),
			Groups:     groups,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// §5.7: engine component overhead.

// EngineOverheadRow reports per-engine resource use for one cluster size.
type EngineOverheadRow struct {
	Workers        int
	Invocations    int
	MasterBusyFrac float64 // master engine busy time / elapsed
	WorkerBusyFrac float64 // mean worker engine busy time / elapsed
	EventsPerInv   float64 // engine events per invocation (all engines)
	EngineMemMB    float64 // mean worker engine resident memory estimate
}

// EngineOverhead reproduces the §5.7 study: run a benchmark closed-loop on
// clusters of increasing size and report engine-loop resource use.
func EngineOverhead(workerCounts []int, invocations int) ([]EngineOverheadRow, error) {
	var rows []EngineOverheadRow
	bench := workloads.WordCount()
	for _, w := range workerCounts {
		tb := NewTestbed(ClusterSpec{Workers: w, FaaStore: true})
		d, err := tb.deploySystem(FaaSFlowFaaStore, bench, engine.DataStore)
		if err != nil {
			return nil, err
		}
		tb.Drive(Client{Target: d.Invoke, Warmup: 1, N: invocations})
		elapsed := tb.Env.Now().Duration()
		if elapsed == 0 {
			elapsed = time.Nanosecond
		}
		var workerBusy time.Duration
		var events int64
		for _, id := range tb.Workers {
			ws := d.Engine.WorkerStats(id)
			workerBusy += ws.Busy
			events += ws.Events
		}
		ms := d.Engine.MasterStats()
		events += ms.Events
		var memSum float64
		for _, id := range tb.Workers {
			memSum += float64(d.Engine.EngineMemory(id))
		}
		rows = append(rows, EngineOverheadRow{
			Workers:        w,
			Invocations:    invocations,
			MasterBusyFrac: ms.Busy.Seconds() / elapsed.Seconds(),
			WorkerBusyFrac: workerBusy.Seconds() / elapsed.Seconds() / float64(w),
			EventsPerInv:   float64(events) / float64(invocations+1),
			EngineMemMB:    memSum / float64(w) / 1e6,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Rendering helpers.

// RenderOverhead builds the Fig 4/11 table.
func RenderOverhead(rows []OverheadRow, systems []System) *metrics.Table {
	header := []string{"bench"}
	for _, s := range systems {
		header = append(header, s.String()+" overhead", s.String()+" e2e")
	}
	t := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, s := range systems {
			cells = append(cells, metrics.Millis(r.Overhead[s]), metrics.Millis(r.E2E[s]))
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderMovement builds the Fig 5 table.
func RenderMovement(rows []MovementRow) *metrics.Table {
	t := metrics.NewTable("bench", "monolithic", "FaaS", "amplification")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.MBytes(r.Monolithic), metrics.MBytes(r.FaaS),
			fmt.Sprintf("%.1fx", float64(r.FaaS)/float64(r.Monolithic)))
	}
	return t
}

// RenderTransfer builds the Table 4 table.
func RenderTransfer(rows []TransferRow) *metrics.Table {
	t := metrics.NewTable("bench", "HyperFlow-serverless", "FaaSFlow-FaaStore", "reduced")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.Seconds(r.HyperFlow), metrics.Seconds(r.FaaStore),
			metrics.Pct(r.Reduction()))
	}
	return t
}

// RenderTail builds the Fig 12/13 table.
func RenderTail(rows []TailRow) *metrics.Table {
	t := metrics.NewTable("bench", "system", "storage", "rate/min", "p99", "timeouts")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Sys.String(), fmt.Sprintf("%.0fMB/s", r.StorageMB),
			fmt.Sprintf("%.0f", r.PerMinute), metrics.Seconds(r.P99), metrics.Pct(r.Timeouts))
	}
	return t
}

// RenderCoLocation builds the Fig 14 table.
func RenderCoLocation(rows []CoLocationRow) *metrics.Table {
	t := metrics.NewTable("bench", "system", "solo", "co-run", "degradation")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Sys.String(), metrics.Seconds(r.Solo), metrics.Seconds(r.CoRun),
			metrics.Pct(r.Degradation()))
	}
	return t
}

// RenderDistribution builds the Fig 15 table.
func RenderDistribution(rows []DistributionRow, workers []string) *metrics.Table {
	header := append([]string{"bench", "groups"}, workers...)
	t := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Bench, fmt.Sprintf("%d", r.Groups)}
		for _, w := range workers {
			cells = append(cells, fmt.Sprintf("%d", r.PerWorker[w]))
		}
		t.AddRow(cells...)
	}
	return t
}

// RenderSchedulerCost builds the Fig 16 table.
func RenderSchedulerCost(rows []SchedulerCostRow) *metrics.Table {
	t := metrics.NewTable("nodes", "wall time", "alloc", "groups")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%.3fms", float64(r.WallTime)/1e6),
			fmt.Sprintf("%.2fMB", float64(r.AllocBytes)/1e6), fmt.Sprintf("%d", r.Groups))
	}
	return t
}

// RenderEngineOverhead builds the §5.7 table.
func RenderEngineOverhead(rows []EngineOverheadRow) *metrics.Table {
	t := metrics.NewTable("workers", "master busy", "worker busy", "events/inv", "engine mem")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Workers), metrics.Pct(r.MasterBusyFrac),
			metrics.Pct(r.WorkerBusyFrac), fmt.Sprintf("%.1f", r.EventsPerInv),
			fmt.Sprintf("%.1fMB", r.EngineMemMB))
	}
	return t
}
