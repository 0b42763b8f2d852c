package perf

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func snap(results ...BenchResult) *BenchSnapshot {
	return &BenchSnapshot{Version: BenchVersion, Seq: 0, Host: Host(), Results: results}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snap(BenchResult{
		Name:       "sim/event-kernel",
		Iterations: 1000,
		Metrics: []Metric{
			timeMetric("ns/op", 125.5, false),
			allocMetric("allocs/op", 1, TolAlloc),
			domainMetric("events/op", 2, TolDomainLoose, false),
		},
	})
	data, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBench(data)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got.Result("sim/event-kernel")
	if !ok {
		t.Fatal("result lost in round trip")
	}
	m, ok := r.Metric("events/op")
	if !ok || m.Value != 2 || m.Class != ClassDomain {
		t.Fatalf("metric lost in round trip: %+v ok=%v", m, ok)
	}
}

func TestParseBenchRejectsVersionSkew(t *testing.T) {
	if _, err := ParseBench([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("version 99 accepted")
	}
	if _, err := ParseBench([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDiffIdenticalSnapshotsIsClean(t *testing.T) {
	s := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("ns/op", 100, false),
		allocMetric("allocs/op", 0, TolAlloc),
		domainMetric("p99-ms", 42, TolDomain, false),
	}})
	d := DiffBench(s, s, 1)
	if d.Regressions != 0 || d.Improvements != 0 || len(d.Missing) != 0 {
		t.Fatalf("self-diff not clean: %s", d.VerboseString())
	}
}

func TestDiffFlagsRegressionPerClass(t *testing.T) {
	oldS := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("ns/op", 100, false),               // tol 100%
		allocMetric("allocs/op", 10, TolAlloc),        // tol 10%
		domainMetric("p99-ms", 100, TolDomain, false), // tol 2%
	}})
	newS := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("ns/op", 180, false),               // +80% — inside 2×
		allocMetric("allocs/op", 12, TolAlloc),        // +20% — over 10%
		domainMetric("p99-ms", 104, TolDomain, false), // +4% — over 2%
	}})
	d := DiffBench(oldS, newS, 1)
	if d.Regressions != 2 {
		t.Fatalf("want 2 regressions (alloc, domain), got %d:\n%s", d.Regressions, d.VerboseString())
	}
	for _, delta := range d.Deltas {
		switch delta.Unit {
		case "ns/op":
			if delta.Regression {
				t.Error("ns/op +80% flagged despite 2x tolerance")
			}
		case "allocs/op", "p99-ms":
			if !delta.Regression {
				t.Errorf("%s not flagged", delta.Unit)
			}
		}
	}
}

func TestDiffHigherIsBetterDirection(t *testing.T) {
	oldS := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("events/sec", 1000, true),
	}})
	worse := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("events/sec", 600, true), // 1.67x worse: inside the 2x tolerance
	}})
	d := DiffBench(oldS, worse, 1)
	if d.Regressions != 0 {
		t.Fatalf("1.67x throughput drop flagged under 2x tolerance:\n%s", d.VerboseString())
	}
	halved := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("events/sec", 400, true), // 2.5x worse: over the 2x tolerance
	}})
	if d := DiffBench(oldS, halved, 1); d.Regressions != 1 {
		t.Fatalf("2.5x throughput drop not flagged:\n%s", d.VerboseString())
	}
	muchWorse := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("events/sec", 10, true),
	}})
	if d := DiffBench(oldS, muchWorse, 1); d.Regressions != 1 {
		t.Fatalf("99%% throughput drop not flagged:\n%s", d.VerboseString())
	}
	better := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("events/sec", 5000, true),
	}})
	if d := DiffBench(oldS, better, 1); d.Regressions != 0 || d.Improvements != 1 {
		t.Fatalf("5x throughput gain misclassified:\n%s", d.VerboseString())
	}
}

func TestDiffToleranceScaling(t *testing.T) {
	oldS := snap(BenchResult{Name: "a", Metrics: []Metric{
		domainMetric("p99-ms", 100, TolDomain, false),
	}})
	newS := snap(BenchResult{Name: "a", Metrics: []Metric{
		domainMetric("p99-ms", 103, TolDomain, false), // +3%
	}})
	if d := DiffBench(oldS, newS, 1); d.Regressions != 1 {
		t.Fatal("+3% over a 2% tolerance not flagged at scale 1")
	}
	if d := DiffBench(oldS, newS, 2); d.Regressions != 0 {
		t.Fatal("+3% flagged at scale 2 (4% effective tolerance)")
	}
}

func TestDiffZeroAllocStaysGated(t *testing.T) {
	oldS := snap(BenchResult{Name: "a", Metrics: []Metric{
		allocMetric("allocs/op", 0, TolAlloc),
	}})
	same := snap(BenchResult{Name: "a", Metrics: []Metric{
		allocMetric("allocs/op", 0, TolAlloc),
	}})
	if d := DiffBench(oldS, same, 1); d.Regressions != 0 {
		t.Fatal("0 -> 0 allocs flagged")
	}
	leaky := snap(BenchResult{Name: "a", Metrics: []Metric{
		allocMetric("allocs/op", 1, TolAlloc),
	}})
	if d := DiffBench(oldS, leaky, 1); d.Regressions != 1 {
		t.Fatal("0 -> 1 allocs not flagged: the zero-alloc gate leaked")
	}
	// Off-zero timing noise is not gated (no relative scale to judge by).
	oldT := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("ns/op", 0, false),
	}})
	newT := snap(BenchResult{Name: "a", Metrics: []Metric{
		timeMetric("ns/op", 5, false),
	}})
	if d := DiffBench(oldT, newT, 1); d.Regressions != 0 {
		t.Fatal("timing coming off zero flagged")
	}
}

func TestDiffReportsMissing(t *testing.T) {
	oldS := snap(
		BenchResult{Name: "a", Metrics: []Metric{timeMetric("ns/op", 1, false)}},
		BenchResult{Name: "gone", Metrics: []Metric{timeMetric("ns/op", 1, false)}},
	)
	newS := snap(
		BenchResult{Name: "a", Metrics: []Metric{timeMetric("ns/op", 1, false), timeMetric("events/sec", 9, true)}},
		BenchResult{Name: "added", Metrics: []Metric{timeMetric("ns/op", 1, false)}},
	)
	d := DiffBench(oldS, newS, 1)
	if len(d.Missing) != 3 { // "gone", "added", and a's extra unit
		t.Fatalf("missing = %v, want 3 entries", d.Missing)
	}
	if d.Regressions != 0 {
		t.Fatalf("missing entries counted as regressions:\n%s", d.String())
	}
	if !strings.Contains(d.String(), "gone") || !strings.Contains(d.String(), "added") {
		t.Fatalf("render omits missing entries:\n%s", d.String())
	}
}

func TestFromBenchmarkResult(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = make([]byte, 64)
		}
		b.ReportMetric(123, "events/op")
		b.ReportMetric(456, "events/sec")
	})
	br := fromBenchmarkResult("t/alloc", r)
	if br.Iterations != r.N {
		t.Fatalf("iterations %d != %d", br.Iterations, r.N)
	}
	if m, ok := br.Metric("allocs/op"); !ok || m.Class != ClassAlloc {
		t.Fatalf("allocs/op misclassified: %+v ok=%v", m, ok)
	}
	if m, ok := br.Metric("events/op"); !ok || m.Class != ClassDomain || m.Value != 123 {
		t.Fatalf("events/op misclassified: %+v ok=%v", m, ok)
	}
	if m, ok := br.Metric("events/sec"); !ok || m.Class != ClassTime || !m.HigherIsBetter {
		t.Fatalf("events/sec misclassified: %+v ok=%v", m, ok)
	}
}

// TestRunMacroDeterministic runs the small macro scenario twice and checks
// the simulated-domain figures are bit-identical — the property the tight
// ClassDomain tolerances rely on.
func TestRunMacroDeterministic(t *testing.T) {
	run := func() BenchResult {
		res, err := runMacro(RunOptions{}, "macro/test", harness.ClusterSpec{FaaStore: true}, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, unit := range []string{"events/invocation", "p50-ms", "p99-ms"} {
		ma, _ := a.Metric(unit)
		mb, _ := b.Metric(unit)
		if ma.Value != mb.Value {
			t.Errorf("%s differs across identical runs: %v vs %v", unit, ma.Value, mb.Value)
		}
		if ma.Value == 0 {
			t.Errorf("%s is zero — macro scenario measured nothing", unit)
		}
	}
}

func TestMicroNamesStable(t *testing.T) {
	suite := microSuite()
	if len(suite) < 8 {
		t.Fatalf("micro suite shrank to %d entries", len(suite))
	}
	seen := map[string]bool{}
	for _, mb := range suite {
		if seen[mb.name] {
			t.Fatalf("duplicate micro benchmark name %q", mb.name)
		}
		seen[mb.name] = true
	}
	for _, want := range []string{"sim/event-kernel", "network/fair-share",
		"engine/dispatch-workersp", "engine/dispatch-mastersp", "store/hybrid-local"} {
		if !seen[want] {
			t.Fatalf("micro suite lost %q", want)
		}
	}
}

// FuzzParseBench: ParseBench never panics on a malformed BENCH snapshot;
// errors are the only acceptable failure mode.
func FuzzParseBench(f *testing.F) {
	data, err := snap(BenchResult{
		Name:       "sim/event-kernel",
		Iterations: 1000,
		Metrics: []Metric{
			timeMetric("ns/op", 125.5, false),
			allocMetric("allocs/op", 1, TolAlloc),
			domainMetric("events/op", 2, TolDomainLoose, false),
		},
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"version": 99}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseBench(data)
	})
}
