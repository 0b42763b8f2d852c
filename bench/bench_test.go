package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// small is a workload's batch at about 1/100 of its full size.
func small(w workload) int { return max(w.size/100, 5) }

func runBatch(t *testing.T, w workload, seed uint64, size int, tr *tracer) *batch {
	t.Helper()
	b, err := w.run(seed, size, tr)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	b.finish()
	return b
}

// TestWorkloadsRepeatPerSeed runs every workload small: its checks pass, a
// traced run on the same seed repeats the deterministic outcome exactly,
// and another seed changes it wherever the seed generates the inputs.
// (gateway-http's inputs are fixed requests; its seed only seeds the
// testbed, whose placement of IR does not depend on it.)
func TestWorkloadsRepeatPerSeed(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			n := small(w)
			a := runBatch(t, w, 1, n, nil)
			tr := newTracer()
			b := runBatch(t, w, 1, n, tr)
			if d := diffDet(a.det, b.det); d != "" {
				t.Fatal("traced run on the same seed:", d)
			}
			if w.name != "gateway-http" {
				c := runBatch(t, w, 2, n, nil)
				if diffDet(a.det, c.det) == "" {
					t.Errorf("seed 2 repeated seed 1's outcome %v", a.det)
				}
			}
			rss, err := peakRSSMiB()
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range endToEnd([]*batch{a}, []float64{a.setup.Seconds()}, rss) {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %v, want a positive number", name, m.Value)
				}
			}
			for name, m := range perLayer([]*batch{a}, []*batch{b}, tr, nil, 0) {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("per-layer %s = %v", name, m.Value)
				}
			}
		})
	}
}

// TestLayerIsolation checks the layer each workload claims to exercise or
// bypass, at 1/10 scale.
func TestLayerIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 1/10 scale")
	}
	counts := map[string]map[string]float64{}
	for _, w := range workloadList {
		b := runBatch(t, w, 1, w.size/10, nil)
		counts[w.name] = b.counts
		for k := range b.counts {
			b.counts[k] /= float64(b.ops)
		}
	}
	if r := counts["gen-control"]["network.resolves"]; r != 0 {
		t.Errorf("gen-control ran the network solver %v times per op", r)
	}
	if r := counts["gen-storage-bound"]["network.resolves"]; r <= 100 {
		t.Errorf("gen-storage-bound resolves per op = %v, want > 100", r)
	}
	for name, c := range counts {
		if (c["cluster.shed"] > 0) != (name == "tenant-overload") {
			t.Errorf("%s: cluster sheds per op = %v", name, c["cluster.shed"])
		}
		durable := name == "durable-failover"
		for _, k := range []string{"journal.committed", "journal.syncs", "federation.claims", "federation.adoptions"} {
			if (c[k] > 0) != durable {
				t.Errorf("%s: %s per op = %v", name, k, c[k])
			}
		}
		if (c["obs.events"] > 0) != (name == "gateway-http") {
			t.Errorf("%s: obs events per op = %v", name, c["obs.events"])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// workloads and metrics in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndDefs)
	same("per_layer", bj.PerLayer, layerDefs)
}

var sink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestLeafSamplesGroupsCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path, err := writeProfile(t.TempDir(), "spin", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := leafSamples(path)
	if err != nil {
		t.Fatal(err)
	}
	total, spinning := 0.0, 0.0
	for fn, n := range leaf {
		if fn == "" {
			t.Errorf("%v samples decoded without a function name", n)
		}
		total += n
		if pkgOf(fn) == "repro/bench" {
			spinning += n
		}
	}
	if total == 0 || spinning == 0 {
		t.Errorf("decoded %v samples, %v of them in this package: %v", total, spinning, leaf)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Env).Step":                    "repro/internal/sim",
		"net/http.(*conn).serve":                            "net/http",
		"runtime.mallocgc":                                  "runtime",
		"repro/internal/engine.(*Deployment).runTask.func1": "repro/internal/engine",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) and ([3, 1, 2], n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100.2, 99.8, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{scaled(1), true, "unchanged"},
		{scaled(1.2), true, "regressed"},
		{scaled(0.8), true, "improved"},
		{scaled(1.2), false, "improved"},
		{wide, true, "unresolved"},
		{scaled(0.5), true, "improved"},
	} {
		a := base
		if c.want == "unresolved" {
			a = wide
		}
		if got := verdictOf(a, c.b, c.lower, 0.1).label; got != c.want {
			t.Errorf("verdict(lower=%v, %v) = %s, want %s", c.lower, c.b[:2], got, c.want)
		}
	}
}

// runs makes one correct record per value of metric m on workload wl,
// seeded 1, 2, ….
func runs(wl, m string, vals ...float64) []record {
	out := make([]record, len(vals))
	for i, v := range vals {
		out[i] = record{Workload: wl, Seed: uint64(i + 1), result: result{
			Correct: true, Attempted: 100,
			Metrics: map[string]metric{m: {Value: v, Unit: "ms"}},
		}}
	}
	return out
}

func TestClaimRule(t *testing.T) {
	a := runs("w", "x", 10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10)
	better := runs("w", "x", 9, 9.1, 8.9, 9, 9.2, 8.8, 9, 9.1, 8.9, 9)
	if ok, why := claimHolds(pairs(a, better), "x", true); !ok {
		t.Errorf("clear gain rejected: %s", why)
	}
	// Pairing goes by seed, not by position in the file.
	slices.Reverse(better)
	if ok, why := claimHolds(pairs(a, better), "x", true); !ok {
		t.Errorf("clear gain in another file order rejected: %s", why)
	}
	mixed := runs("w", "x", 11, 11, 8.9, 9, 9.2, 8.8, 9, 9.1, 8.9, 9) // B loses 2 of 10 pairs
	if ok, why := claimHolds(pairs(a, mixed), "x", true); ok {
		t.Errorf("gain winning 8 of 10 pairs accepted: %s", why)
	}
	failing := runs("w", "x", 9, 9.1, 8.9, 9, 9.2, 8.8, 9, 9.1, 8.9, 9)
	failing[0].Failed = 1
	if ok, why := claimHolds(pairs(a, failing), "x", true); ok {
		t.Errorf("gain failing more ops than the baseline accepted: %s", why)
	}
}

func TestReportFailsOnBrokenCandidate(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"x","better":"lower","bound":0.1}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	a := map[string][]record{"w": runs("w", "x", 10, 10, 10, 10, 10)}
	if code := report(io.Discard, sp, a, a, nil); code != 0 {
		t.Fatalf("identical sets: exit %d", code)
	}
	broken := runs("w", "x", 10, 10, 10, 10, 10)
	for i := range broken {
		broken[i].Correct = false
	}
	if code := report(io.Discard, sp, a, map[string][]record{"w": broken}, nil); code != 1 {
		t.Errorf("candidate whose every run failed its checks: exit %d, want 1", code)
	}
	if code := report(io.Discard, sp, a, map[string][]record{"w": runs("w", "x", 10, 10, 10, 10)}, nil); code != 1 {
		t.Errorf("candidate missing a run: exit %d, want 1", code)
	}
	if code := report(io.Discard, sp, a, map[string][]record{"v": runs("v", "x", 10, 10, 10, 10, 10)}, nil); code != 1 {
		t.Errorf("candidate missing a workload: exit %d, want 1", code)
	}
}

// TestReportJudgesExactMetricsBySeed checks that a metric which repeats
// exactly for a seed is judged on same-seed pairs: a small shift the seed
// spread would hide is still a regression.
func TestReportJudgesExactMetricsBySeed(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"x","better":"lower","bound":0.2}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	exact := func(rs []record) map[string][]record {
		for i := range rs {
			rs[i].Exact = []string{"x"}
		}
		return map[string][]record{"w": rs}
	}
	a := exact(runs("w", "x", 70, 100, 130, 85, 115))
	if code := report(io.Discard, sp, a, exact(runs("w", "x", 70, 100, 130, 85, 115)), nil); code != 0 {
		t.Errorf("identical outcomes: exit %d", code)
	}
	if code := report(io.Discard, sp, a, exact(runs("w", "x", 70, 110, 130, 85, 115)), nil); code != 1 {
		t.Errorf("one seed 10%% worse: exit %d, want 1", code)
	}
}
