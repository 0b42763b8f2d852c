// Package whatif is a causal what-if profiler for the simulated cluster.
//
// Critical-path breakdowns (internal/obs) say where time went; this package
// answers what end-to-end latency would become if a component were faster.
// Because the simulator is deterministic, the question has an exact answer:
// re-run the identical scenario (same workload, same seed, same placement
// inputs) with one cost dimension virtually scaled, and diff the runs. This
// is the Coz virtual-speedup idea, but exact instead of sampled — no
// statistical machinery, the counterfactual is simply executed.
//
// The perturbation hooks are deliberately placed downstream of every
// scheduler input: execution time scales at dispatch (engine.Options
// .ExecScale), not in the benchmark's nominal ExecSeconds the placer reads;
// link bandwidth scales inside the fabric (Fabric.SetBandwidthScale), not
// in the ClusterSpec the placer reads. Placement therefore stays identical
// across baseline and counterfactual, and the measured delta is purely the
// dimension's causal contribution under the *same* plan.
package whatif

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Dimension identifies one virtually-scalable cost source.
type Dimension string

const (
	// DimExec scales function execution time (optionally one function).
	DimExec Dimension = "exec"
	// DimColdStart scales container cold-start latency.
	DimColdStart Dimension = "coldstart"
	// DimNetwork scales link bandwidth: factor f means every transfer
	// serializes f× as long (bandwidth ×1/f).
	DimNetwork Dimension = "network"
	// DimStore scales the remote store's per-operation latency.
	DimStore Dimension = "store"
	// DimControl scales control-plane cost: per-message fabric latency
	// plus master/worker engine-loop processing time.
	DimControl Dimension = "control"
)

// Dimensions returns every dimension in canonical (report) order.
func Dimensions() []Dimension {
	return []Dimension{DimExec, DimColdStart, DimNetwork, DimStore, DimControl}
}

// Components maps a dimension to the critical-path components its speedup
// should show up in — the basis for the predicted gain that the measured
// counterfactual validates. DimStore returns nil: remote-store op latency
// is embedded inside fetch/store phases with no component of its own, so
// its prediction is conservatively zero.
func (d Dimension) Components() []obs.Component {
	switch d {
	case DimExec:
		return []obs.Component{obs.CompExec}
	case DimColdStart:
		return []obs.Component{obs.CompAcquire}
	case DimNetwork:
		return []obs.Component{obs.CompFetch, obs.CompStore}
	case DimControl:
		return []obs.Component{obs.CompTransfer, obs.CompSchedule, obs.CompQueue}
	default:
		return nil
	}
}

// Perturbation is one counterfactual: scale Dim's cost by Factor.
// Factor 1 is the baseline, 0.5 halves the cost, 0 removes it (the
// dimension becomes effectively free). Function restricts DimExec to a
// single function; it is invalid for other dimensions.
type Perturbation struct {
	Dim      Dimension `json:"dim"`
	Factor   float64   `json:"factor"`
	Function string    `json:"function,omitempty"`
}

// Validate rejects malformed perturbations.
func (p Perturbation) Validate() error {
	switch p.Dim {
	case DimExec, DimColdStart, DimNetwork, DimStore, DimControl:
	default:
		return fmt.Errorf("whatif: unknown dimension %q", p.Dim)
	}
	if p.Factor < 0 {
		return fmt.Errorf("whatif: negative factor %v", p.Factor)
	}
	if p.Function != "" && p.Dim != DimExec {
		return fmt.Errorf("whatif: per-function scaling applies to %q only, not %q", DimExec, p.Dim)
	}
	return nil
}

func (p Perturbation) String() string {
	if p.Function != "" {
		return fmt.Sprintf("%s(%s)×%g", p.Dim, p.Function, p.Factor)
	}
	return fmt.Sprintf("%s×%g", p.Dim, p.Factor)
}

// Scenario is a replayable workload: everything needed to reconstruct a
// testbed and drive it identically. Zero fields take the Genome(50)×200
// defaults that match the perf suite's macro/genome-8node scenario.
type Scenario struct {
	Bench  *workloads.Benchmark
	Spec   harness.ClusterSpec
	Opts   engine.Options
	Warmup int
	N      int
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Bench == nil {
		sc.Bench = workloads.Genome(50)
	}
	if sc.N <= 0 {
		sc.N = 200
	}
	if sc.Warmup <= 0 {
		sc.Warmup = 2
	}
	// Counterfactual runs measure latency, not durability: replaying a
	// shared journal across re-simulations would corrupt both.
	sc.Opts.Journal = nil
	return sc
}

// GenomeScenario is the canonical profiling scenario: Genome(width) on the
// paper's 8-node FaaStore cluster under WorkerSP, n closed-loop
// invocations after 2 warmups.
func GenomeScenario(width, n int) Scenario {
	return Scenario{
		Bench: workloads.Genome(width),
		Spec:  harness.ClusterSpec{FaaStore: true},
		Opts:  engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore},
		N:     n,
	}
}

// RunResult is one (possibly perturbed) run's measurements.
type RunResult struct {
	// Perturbation is nil for the baseline run.
	Perturbation *Perturbation `json:"perturbation,omitempty"`
	Count        int           `json:"count"`
	MeanNs       int64         `json:"meanNs"`
	P50Ns        int64         `json:"p50Ns"`
	P99Ns        int64         `json:"p99Ns"`
	MaxNs        int64         `json:"maxNs"`
	// Components holds the mean critical-path attribution (per-component
	// ns, warmup invocations excluded), keyed by component name.
	Components map[string]int64 `json:"components"`
}

// Summary reconstructs the run's aggregated breakdown for diffing.
func (r *RunResult) Summary() obs.Summary {
	s := obs.Summary{
		Count:     r.Count,
		MeanTotal: time.Duration(r.MeanNs),
		Mean:      map[obs.Component]time.Duration{},
	}
	for _, c := range obs.Components() {
		if v, ok := r.Components[c.String()]; ok {
			s.Mean[c] = time.Duration(v)
		}
	}
	return s
}

// Run executes the scenario under p (nil = baseline) and returns exact
// measurements. Same scenario + same perturbation is deterministic.
func Run(sc Scenario, p *Perturbation) (*RunResult, error) {
	res, _, err := runScenario(sc, p)
	return res, err
}

// runScenario is Run plus the raw trace log, which Explain needs for
// utilization evidence on the baseline.
func runScenario(sc Scenario, p *Perturbation) (*RunResult, *obs.TraceLog, error) {
	sc = sc.withDefaults()
	if p != nil {
		if err := p.Validate(); err != nil {
			return nil, nil, err
		}
	}
	tb := harness.NewTestbed(sc.Spec)
	bus := obs.NewBus()
	tlog := obs.NewTraceLog()
	bus.Subscribe(tlog.Record)
	tb.AttachBus(bus)
	opts := sc.Opts
	if p != nil {
		applyToOptions(&opts, *p)
		applyToTestbed(tb, *p)
	}
	d, err := tb.Deploy(sc.Bench, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("whatif: deploy %s: %w", sc.Bench.Name, err)
	}
	rec := tb.Drive(harness.Client{Target: d.Invoke, Warmup: sc.Warmup, N: sc.N})[0].Rec
	if rec.Count() != sc.N {
		return nil, nil, fmt.Errorf("whatif: %d/%d invocations completed under %v", rec.Count(), sc.N, p)
	}
	sum := obs.Summarize(dropWarmup(obs.AnalyzeAll(tlog), sc.Warmup))
	res := &RunResult{
		Perturbation: p,
		Count:        rec.Count(),
		MeanNs:       rec.Mean().Nanoseconds(),
		P50Ns:        rec.Percentile(0.50).Nanoseconds(),
		P99Ns:        rec.P99().Nanoseconds(),
		MaxNs:        rec.Max().Nanoseconds(),
		Components:   map[string]int64{},
	}
	for c, v := range sum.Mean {
		res.Components[c.String()] = v.Nanoseconds()
	}
	return res, tlog, nil
}

// dropWarmup removes the first warmup invocations (ascending invocation
// id) so breakdown means cover exactly the recorded population — warmup
// runs absorb cold starts and would skew the acquire component.
func dropWarmup(bds []*obs.Breakdown, warmup int) []*obs.Breakdown {
	if warmup <= 0 || len(bds) <= warmup {
		return bds
	}
	sorted := append([]*obs.Breakdown(nil), bds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Inv < sorted[j].Inv })
	return sorted[warmup:]
}

// applyToOptions folds option-level scaling (execution time, engine-loop
// processing) into the deployment options. Defaults are resolved first so
// a scaled value of zero cannot be mistaken for "use the default".
func applyToOptions(opts *engine.Options, p Perturbation) {
	switch p.Dim {
	case DimExec:
		fn, f := p.Function, p.Factor
		opts.ExecScale = func(name string) float64 {
			if fn == "" || fn == name {
				return f
			}
			return 1
		}
	case DimControl:
		if opts.MasterProc == 0 {
			opts.MasterProc = 11 * time.Millisecond
		}
		if opts.WorkerProc == 0 {
			opts.WorkerProc = 1500 * time.Microsecond
		}
		opts.MasterProc = scaleDuration(opts.MasterProc, p.Factor)
		opts.WorkerProc = scaleDuration(opts.WorkerProc, p.Factor)
	}
}

// applyToTestbed folds substrate-level scaling (cold start, fabric, store)
// into a freshly built testbed, before any traffic.
func applyToTestbed(tb *harness.Testbed, p Perturbation) {
	switch p.Dim {
	case DimColdStart:
		for _, n := range tb.Runtime.Nodes {
			n.SetColdStartScale(p.Factor)
		}
	case DimNetwork:
		tb.Fabric.SetBandwidthScale(bandwidthScale(p.Factor))
	case DimStore:
		tb.Remote.OpLatency = scaleDuration(tb.Remote.OpLatency, p.Factor)
	case DimControl:
		tb.Fabric.SetLatencyScale(p.Factor)
	}
}

// bandwidthScale converts a cost factor into a capacity multiplier:
// serializing half as long means twice the bandwidth. Factor 0 (free
// transfers) becomes a finite but effectively instant 10^9× speedup so the
// fair-share solver keeps finite rates.
func bandwidthScale(factor float64) float64 {
	if factor <= 0 {
		return 1e9
	}
	return 1 / factor
}

// scaleDuration scales d by f, clamping to a 1ns floor so downstream
// zero-means-default resolution cannot resurrect the unscaled value.
func scaleDuration(d time.Duration, f float64) time.Duration {
	if f <= 0 {
		return 1
	}
	s := time.Duration(float64(d) * f)
	if s <= 0 {
		s = 1
	}
	return s
}
