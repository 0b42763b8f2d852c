package perf

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// Default tolerances per metric class. Time tolerances are deliberately
// generous — BENCH files are compared across machines and under CI noise —
// while domain figures come out of the deterministic simulator and must
// not move at all without a code change.
const (
	// TolTime allows the new value to be up to 2× worse (100% worse).
	TolTime = 1.0
	// TolAlloc allows 10% more allocations per op (loop amortization).
	TolAlloc = 0.10
	// TolBytes allows 25% more bytes per op (map growth amortization).
	TolBytes = 0.25
	// TolDomain allows 2% drift on simulated-domain figures.
	TolDomain = 0.02
	// TolDomainLoose allows 5% on per-op domain ratios, which see mild
	// iteration-count dependence (warm pool state, b.N rounding).
	TolDomainLoose = 0.05
)

func timeMetric(unit string, v float64, hib bool) Metric {
	return Metric{Unit: unit, Value: v, Class: ClassTime, HigherIsBetter: hib, Tol: TolTime}
}

func allocMetric(unit string, v float64, tol float64) Metric {
	return Metric{Unit: unit, Value: v, Class: ClassAlloc, Tol: tol}
}

func domainMetric(unit string, v float64, tol float64, hib bool) Metric {
	return Metric{Unit: unit, Value: v, Class: ClassDomain, HigherIsBetter: hib, Tol: tol}
}

// RunOptions configures one Runner execution.
type RunOptions struct {
	// Seq is the snapshot sequence number (the N in BENCH_N.json).
	Seq int
	// Quick shrinks the macro scenario for CI smoke runs. The micro suite
	// is unaffected (testing.Benchmark self-calibrates to ~1s per body).
	Quick bool
	// Logf, when non-nil, receives progress lines as each stage finishes.
	Logf func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes the full performance suite — micro benchmarks, the macro
// scenario, the scale probe, and the headline paper figures — and returns
// the snapshot. It does not touch the filesystem; the caller persists.
func Run(opts RunOptions) (*BenchSnapshot, error) {
	s := &BenchSnapshot{
		Version: BenchVersion,
		Seq:     opts.Seq,
		Host:    Host(),
		Quick:   opts.Quick,
	}
	for _, mb := range microSuite() {
		r := testing.Benchmark(mb.body)
		s.Results = append(s.Results, fromBenchmarkResult(mb.name, r))
		opts.logf("micro %-26s %s", mb.name, r.String())
	}
	macro, err := runMacro(opts, "macro/genome-8node", harness.ClusterSpec{FaaStore: true}, 50, pick(opts.Quick, 32, 200))
	if err != nil {
		return nil, err
	}
	s.Results = append(s.Results, macro)
	probe, err := runMacro(opts, "macro/scale-100node", harness.ClusterSpec{Workers: 100, FaaStore: true}, 100, pick(opts.Quick, 8, 50))
	if err != nil {
		return nil, err
	}
	s.Results = append(s.Results, probe)
	figs, err := runFigures(opts)
	if err != nil {
		return nil, err
	}
	s.Results = append(s.Results, figs...)
	return s, nil
}

func pick(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}

// fromBenchmarkResult converts a testing.BenchmarkResult into the
// snapshot schema, classifying the standard metrics and any ReportMetric
// extras by unit.
func fromBenchmarkResult(name string, r testing.BenchmarkResult) BenchResult {
	out := BenchResult{Name: name, Iterations: r.N}
	out.Metrics = append(out.Metrics,
		timeMetric("ns/op", float64(r.NsPerOp()), false),
		allocMetric("allocs/op", float64(r.AllocsPerOp()), TolAlloc),
		allocMetric("B/op", float64(r.AllocedBytesPerOp()), TolBytes),
	)
	for unit, v := range r.Extra {
		out.Metrics = append(out.Metrics, classifyExtra(unit, v))
	}
	return out
}

// classifyExtra assigns class/tolerance/direction to a ReportMetric unit.
// Rates against host time are timing; per-op domain ratios are (loosely)
// deterministic.
func classifyExtra(unit string, v float64) Metric {
	switch unit {
	case "events/op", "resolves/op":
		return domainMetric(unit, v, TolDomainLoose, false)
	default:
		// "events/sec", "resolves/sec", "ops/sec", "observe/sec",
		// "simsec/sec": host-relative throughputs, higher is better.
		return timeMetric(unit, v, true)
	}
}

// runMacro drives one macro scenario: a Genome-class workflow of the given
// width deployed on the given cluster, invoked n times closed-loop, with
// host wall time measured around the whole run.
func runMacro(opts RunOptions, name string, spec harness.ClusterSpec, width, n int) (BenchResult, error) {
	tb := harness.NewTestbed(spec)
	d, err := tb.Deploy(workloads.Genome(width), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
	if err != nil {
		return BenchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	const warmup = 2
	start := time.Now()
	startSim := tb.Env.Now()
	rec := tb.Drive(harness.Client{Target: d.Invoke, Warmup: warmup, N: n})[0].Rec
	wall := time.Since(start)
	if rec.Count() != n {
		return BenchResult{}, fmt.Errorf("%s: %d/%d invocations completed", name, rec.Count(), n)
	}
	fired := float64(tb.Env.Fired())
	simSecs := (tb.Env.Now() - startSim).Seconds()
	res := BenchResult{Name: name, Iterations: n}
	res.Metrics = append(res.Metrics,
		timeMetric("wall-ms", float64(wall.Milliseconds()), false),
		timeMetric("events/sec", fired/wall.Seconds(), true),
		timeMetric("simsec/sec", simSecs/wall.Seconds(), true),
		// The simulation itself is deterministic: same code, same figures.
		domainMetric("events/invocation", fired/float64(n+warmup), TolDomainLoose, false),
		domainMetric("p50-ms", rec.Percentile(0.50).Seconds()*1e3, TolDomain, false),
		domainMetric("p99-ms", rec.P99().Seconds()*1e3, TolDomain, false),
	)
	opts.logf("macro %-26s wall=%v events=%.0f p99=%v", name, wall.Round(time.Millisecond), fired, rec.P99())
	return res, nil
}

// runFigures reproduces the headline paper figures at reduced scale and
// folds them into the snapshot as deterministic domain metrics, so the
// perf trajectory also tracks whether the simulator still reproduces the
// paper — not just how fast it runs.
func runFigures(opts RunOptions) ([]BenchResult, error) {
	reps := pick(opts.Quick, 2, 5)

	// Figure 11: scheduling-overhead reduction, FaaSFlow vs HyperFlow.
	rows, err := harness.SchedulingOverhead([]harness.System{harness.HyperFlow, harness.FaaSFlow}, reps)
	if err != nil {
		return nil, fmt.Errorf("figures/fig11: %w", err)
	}
	hs, ha := harness.OverheadAverages(rows, harness.HyperFlow)
	fs, fa := harness.OverheadAverages(rows, harness.FaaSFlow)
	red := 1 - (fs.Seconds()+fa.Seconds())/(hs.Seconds()+ha.Seconds())
	fig11 := BenchResult{Name: "figures/fig11-overhead", Iterations: reps, Metrics: []Metric{
		domainMetric("reduction-pct", red*100, TolDomain, true),
		domainMetric("hyperflow-ms", (hs.Seconds()+ha.Seconds())*1e3/2, TolDomain, false),
		domainMetric("faasflow-ms", (fs.Seconds()+fa.Seconds())*1e3/2, TolDomain, false),
	}}
	opts.logf("figure %-26s reduction=%.1f%%", "fig11-overhead", red*100)

	// Table 4: data-movement latency reduction under FaaStore.
	trows, err := harness.TransferLatency(pick(opts.Quick, 1, 3))
	if err != nil {
		return nil, fmt.Errorf("figures/table4: %w", err)
	}
	var meanRed float64
	for _, r := range trows {
		meanRed += r.Reduction()
	}
	meanRed /= float64(len(trows))
	table4 := BenchResult{Name: "figures/table4-transfer", Iterations: len(trows), Metrics: []Metric{
		domainMetric("mean-reduction-pct", meanRed*100, TolDomain, true),
	}}
	opts.logf("figure %-26s mean-reduction=%.1f%%", "table4-transfer", meanRed*100)

	// Figure 13 (subset): Gen p99 under both systems at the paper's
	// 50 MB/s + 6 inv/min operating point.
	lrows, err := harness.TailLatency([]string{"Gen"},
		[]harness.System{harness.HyperFlow, harness.FaaSFlowFaaStore},
		[]float64{50}, []float64{6}, pick(opts.Quick, 10, 30))
	if err != nil {
		return nil, fmt.Errorf("figures/fig13: %w", err)
	}
	fig13 := BenchResult{Name: "figures/fig13-tail-gen", Iterations: pick(opts.Quick, 10, 30)}
	for _, r := range lrows {
		unit := "hyperflow-p99-ms"
		if r.Sys == harness.FaaSFlowFaaStore {
			unit = "faasflow-p99-ms"
		}
		fig13.Metrics = append(fig13.Metrics, domainMetric(unit, r.P99.Seconds()*1e3, TolDomain, false))
	}
	opts.logf("figure %-26s done", "fig13-tail-gen")

	return []BenchResult{fig11, table4, fig13}, nil
}
