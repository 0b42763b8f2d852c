package faasflow

import (
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// Observer collects everything one cluster emits while attached: a full
// event log (for trace export and critical-path analysis) and a labeled
// metrics registry (for Prometheus exposition). A detached cluster
// publishes nothing and pays no observation cost.
type Observer struct {
	bus *obs.Bus
	log *obs.TraceLog
	reg *obs.Registry
}

// NewObserver builds an observer with an event log and metrics collector
// already subscribed. Attach it with Cluster.AttachObserver.
func NewObserver() *Observer {
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg)
	bus.Subscribe(log.Record)
	bus.Subscribe(col.Handle)
	bus.Subscribe(obs.NewLatencyTracker(col))
	return &Observer{bus: bus, log: log, reg: reg}
}

// AttachObserver wires the observer through every cluster substrate —
// engines (including already-deployed apps), container nodes, network
// fabric, store, and scheduler.
func (c *Cluster) AttachObserver(o *Observer) {
	if o == nil {
		c.tb.AttachBus(nil)
		c.adm.SetBus(nil)
		return
	}
	c.tb.AttachBus(o.bus)
	// SetAdmission and AttachObserver can run in either order; keep the
	// controller on whatever bus is current.
	c.adm.SetBus(o.bus)
}

// DetachObserver disconnects observation; subsequent activity publishes
// nothing.
func (c *Cluster) DetachObserver() {
	c.tb.AttachBus(nil)
	c.adm.SetBus(nil)
}

// PrometheusText renders the collected metrics in Prometheus text
// exposition format (what a /metrics endpoint serves).
func (o *Observer) PrometheusText() string { return o.reg.String() }

// ChromeTrace exports everything observed so far as a Chrome trace
// (load in chrome://tracing or Perfetto): executor phase spans per
// worker, flow and store-op tracks, per-node container/memory counters,
// and control-plane trigger chains.
func (o *Observer) ChromeTrace() ([]byte, error) { return obs.ChromeTrace(o.log) }

// WorkflowTrace exports the trace of one workflow's events only. It
// errors when no invocation of that workflow was observed.
func (o *Observer) WorkflowTrace(name string) ([]byte, error) {
	sub := o.log.ForWorkflow(name)
	if sub.Len() == 0 {
		return nil, fmt.Errorf("faasflow: no observed events for workflow %q", name)
	}
	return obs.ChromeTrace(sub)
}

// Workflows lists the workflow names with observed invocations.
func (o *Observer) Workflows() []string { return o.log.Workflows() }

// Events reports how many events have been observed.
func (o *Observer) Events() int { return o.log.Len() }

// Reset discards the event log and zeroes every gauge, so a reused
// observer does not report stale per-node occupancy from the previous run.
// Counters and histograms are cumulative and keep accumulating.
func (o *Observer) Reset() {
	o.log.Reset()
	o.reg.ZeroGauges()
}

// Breakdown attributes one invocation's end-to-end latency to latency
// components. Component keys are the analyzer's buckets: acquire, fetch,
// exec, store, transfer, queue, schedule.
type Breakdown struct {
	Workflow   string
	Invocation int64
	Mode       string
	Total      time.Duration
	Components map[string]time.Duration
	// Path is the critical path's step names, source first.
	Path []string
}

func toBreakdown(b *obs.Breakdown) Breakdown {
	comps := map[string]time.Duration{}
	for c, d := range b.ByComponent {
		comps[c.String()] = d
	}
	return Breakdown{
		Workflow:   b.Workflow,
		Invocation: b.Inv,
		Mode:       b.Mode,
		Total:      b.Total,
		Components: comps,
		Path:       append([]string(nil), b.Path...),
	}
}

// Breakdowns analyzes every completed invocation observed so far.
func (o *Observer) Breakdowns() []Breakdown {
	bds := obs.AnalyzeAll(o.log)
	out := make([]Breakdown, len(bds))
	for i, b := range bds {
		out[i] = toBreakdown(b)
	}
	return out
}

// Report aggregates breakdowns into per-component mean attribution.
type Report struct {
	Count     int
	MeanTotal time.Duration
	Mean      map[string]time.Duration
}

// Report analyzes all completed invocations and averages the attribution.
func (o *Observer) Report() Report {
	s := obs.Summarize(obs.AnalyzeAll(o.log))
	mean := map[string]time.Duration{}
	for c, d := range s.Mean {
		mean[c.String()] = d
	}
	return Report{Count: s.Count, MeanTotal: s.MeanTotal, Mean: mean}
}

// ReportText renders the attribution report as an aligned table sorted by
// mean component time.
func (o *Observer) ReportText() string {
	return obs.Summarize(obs.AnalyzeAll(o.log)).String()
}

// ResourceUtilization is one resource's condensed occupancy timeline: mean,
// peak, and p95 in native units, busy fraction, and — for capacitated
// resources — mean/peak occupancy in [0, 1].
type ResourceUtilization = obs.ResourceSummary

// Utilization folds everything observed so far into per-resource occupancy
// summaries — per-node CPU/memory/container/warm-pool counts, per-link
// achieved bandwidth, per-function queue depths — sorted by resource name.
func (o *Observer) Utilization() []ResourceUtilization {
	return obs.ComputeUtilization(o.log).Summaries()
}

// BottleneckSummary is one (workflow, mode) group's aggregated bottleneck
// attribution: per-component mean critical-path time joined with the most
// saturated underlying resource.
type BottleneckSummary = obs.BottleneckSummary

// Bottlenecks joins every completed invocation's critical path with
// resource saturation and aggregates per (workflow, mode).
func (o *Observer) Bottlenecks() []BottleneckSummary {
	return obs.SummarizeBottlenecks(obs.AttributeBottlenecks(o.log))
}

// Snapshot is a flight-recorder artifact: the full event log, per-workflow
// latency statistics, and utilization summaries as versioned JSON. Two
// identical runs produce byte-identical snapshots.
type Snapshot = obs.Snapshot

// Snapshot captures everything observed so far. meta carries caller labels
// (system, benchmark, commit); keep wall-clock values out of it when
// byte-identical reruns matter.
func (o *Observer) Snapshot(meta map[string]string) *Snapshot {
	return obs.BuildSnapshot(o.log, meta)
}

// LoadSnapshot reads a snapshot file written with Snapshot.Marshal.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ParseSnapshot(data)
}

// SnapshotDiff is a run-to-run comparison: per-(workflow, mode) latency
// percentile deltas with Regressions/Improvements totals; String() renders
// the table.
type SnapshotDiff = obs.DiffResult

// DiffSnapshots compares two snapshots with default noise thresholds (2%
// relative, 1ms absolute). Use obs.Diff directly for custom thresholds.
func DiffSnapshots(oldS, newS *Snapshot) *SnapshotDiff {
	return obs.Diff(oldS, newS, obs.DiffOptions{})
}
