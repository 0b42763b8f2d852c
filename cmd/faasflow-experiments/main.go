// Command faasflow-experiments regenerates every table and figure of the
// FaaSFlow paper's evaluation (plus the §2 motivation figures) on the
// simulated testbed.
//
//	faasflow-experiments -run all
//	faasflow-experiments -run fig12 -n 200
//	faasflow-experiments -run table4,fig13
//	faasflow-experiments -run chaos -n 20 -snapshots snaps
//
// Experiments: fig4, fig5, fig11, table4, fig12, fig13, fig14, fig15,
// fig16, sec57, coldstart, claims, then the gated scenarios of the
// harness registry (chaos, overload, durable, fastpath, federation,
// tenants). -n scales invocation counts (default 1000, the paper's count,
// for closed/open loops; co-location uses n/10; each scenario caps it).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/perf"
	"repro/internal/whatif"
)

// csvDir, when set, receives each experiment's table as <name>.csv.
var csvDir string

// svgDir, when set, receives each experiment's figure as <name>.svg.
var svgDir string

// chart is the common interface of viz.BarChart and viz.LineChart.
type chart interface{ SVG() (string, error) }

// emitSVG renders a chart into svgDir when figure output is enabled.
func emitSVG(name string, c chart) {
	if svgDir == "" {
		return
	}
	svg, err := c.SVG()
	if err != nil {
		fmt.Fprintf(os.Stderr, "faasflow-experiments: rendering %s: %v\n", name, err)
		os.Exit(1)
	}
	path := filepath.Join(svgDir, name+".svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "faasflow-experiments: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

// emit prints a table and optionally persists it as CSV.
func emit(name string, t *metrics.Table) {
	fmt.Print(t.String())
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "faasflow-experiments: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

func main() {
	var (
		run  = flag.String("run", "all", "comma-separated experiment list or 'all'")
		n    = flag.Int("n", 1000, "invocations per measurement")
		snap = flag.String("snapshot", "", "also write a flight-recorder snapshot (Gen+Vid on FaaSFlow-FaaStore) to this file")

		benchjson  = flag.String("benchjson", "", "run the perf suite and write a BENCH snapshot to this file (skips experiments unless -run is passed explicitly)")
		whatifOut  = flag.String("whatif", "", "run the causal what-if sweep on Genome and write the profile JSON to this file (skips experiments unless -run is passed explicitly)")
		whatifN    = flag.Int("whatif-n", 200, "invocations per what-if counterfactual run (CI smoke uses a small value)")
		whatifW    = flag.Int("whatif-width", 50, "Genome workflow width for the what-if sweep")
		benchquick = flag.Bool("benchquick", false, "shrink the perf suite's macro scenarios (CI smoke)")
		benchseq   = flag.Int("benchseq", -1, "BENCH snapshot sequence number (default: inferred from a BENCH_<n>.json filename, else 0)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.StringVar(&csvDir, "csv", "", "also write each experiment's table as CSV into this directory")
	flag.StringVar(&svgDir, "svg", "", "also write each experiment's figure as SVG into this directory")
	flag.StringVar(&snapDir, "snapshots", "", "write each scenario run's flight-recorder snapshots into this directory")
	flag.BoolVar(&noAdmission, "no-admission", false, "overload counterfactual: disable front-door admission control (the goodput gate is expected to fail)")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Heap profile at normal exit; error paths os.Exit and skip it, as
		// a partial profile of a failed run would mislead more than help.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
			}
		}()
	}
	if (*benchjson != "" || *whatifOut != "") && !flagPassed("run") {
		// A bare -benchjson or -whatif runs only that suite; experiments
		// still run when -run is given alongside.
		*run = ""
	}
	for _, dir := range []string{csvDir, svgDir, snapDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments:", err)
			os.Exit(1)
		}
	}

	selected := selectExperiments(*run)
	for _, exp := range selected {
		fmt.Printf("== %s: %s ==\n", exp.name, exp.title)
		start := time.Now()
		if err := exp.run(*n); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", exp.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", exp.name, time.Since(start).Round(time.Millisecond))
	}
	if *snap != "" {
		inv := *n
		if inv > 50 {
			inv = 50 // the snapshot holds the full event log; cap its size
		}
		s, err := harness.RunSnapshot(harness.FaaSFlowFaaStore, []string{"Gen", "Vid"}, inv,
			network.MBps(50), map[string]string{"source": "faasflow-experiments"})
		if err == nil {
			var data []byte
			if data, err = s.Marshal(); err == nil {
				err = os.WriteFile(*snap, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments: snapshot:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot: wrote %s (%d events)\n", *snap, len(s.Events))
	}
	if *benchjson != "" {
		if err := runBench(*benchjson, *benchseq, *benchquick); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments: bench:", err)
			os.Exit(1)
		}
	}
	if *whatifOut != "" {
		if err := runWhatIf(*whatifOut, *whatifW, *whatifN); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow-experiments: whatif:", err)
			os.Exit(1)
		}
	}
	if len(selected) == 0 && *snap == "" && *benchjson == "" && *whatifOut == "" {
		known := make([]string, len(experiments))
		for i, exp := range experiments {
			known[i] = exp.name
		}
		fmt.Fprintf(os.Stderr, "no experiment matched %q; known: %s\n", *run, strings.Join(known, " "))
		os.Exit(1)
	}
}

// selectExperiments resolves a -run list ("all", or comma-separated
// names) to the matching experiments, in table order.
func selectExperiments(run string) []experiment {
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []experiment
	for _, exp := range experiments {
		if want["all"] || want[exp.name] {
			out = append(out, exp)
		}
	}
	return out
}

// flagPassed reports whether the named flag appeared on the command line.
func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

// runBench executes the perf suite and writes the BENCH snapshot. The
// sequence number comes from -benchseq, or is inferred from a
// BENCH_<n>.json filename so `-benchjson BENCH_3.json` does the obvious
// thing.
func runBench(path string, seq int, quick bool) error {
	if seq < 0 {
		seq = 0
		base := filepath.Base(path)
		if rest, ok := strings.CutPrefix(base, "BENCH_"); ok {
			if num, ok := strings.CutSuffix(rest, ".json"); ok {
				if n, err := strconv.Atoi(num); err == nil && n >= 0 {
					seq = n
				}
			}
		}
	}
	fmt.Printf("== bench: performance suite (seq %d, quick=%v) ==\n", seq, quick)
	start := time.Now()
	s, err := perf.Run(perf.RunOptions{Seq: seq, Quick: quick, Logf: func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	}})
	if err != nil {
		return err
	}
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s (%d benchmarks, %v)\n", path, len(s.Results), time.Since(start).Round(time.Millisecond))
	return nil
}

// runWhatIf executes the full virtual-speedup sweep on the canonical Genome
// scenario and writes the causal-profile artifact. The sweep is exact and
// deterministic: same width, n, and seed produce a byte-identical file,
// which is what the CI whatif smoke job diffs.
func runWhatIf(path string, width, n int) error {
	fmt.Printf("== whatif: causal sweep (Genome width %d, n %d) ==\n", width, n)
	start := time.Now()
	prof, err := whatif.Sweep(whatif.GenomeScenario(width, n), nil)
	if err != nil {
		return err
	}
	data, err := prof.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	points := 0
	for _, c := range prof.Curves {
		points += len(c.Points)
	}
	fmt.Printf("whatif: wrote %s (%d curves, %d counterfactual points, %v)\n",
		path, len(prof.Curves), points, time.Since(start).Round(time.Millisecond))
	return nil
}

// experiment is one -run target.
type experiment struct {
	name, title string
	run         func(n int) error
}

// experiments lists the paper's figures and tables, then every registered
// harness scenario.
var experiments = append([]experiment{
	{"fig4", "MasterSP scheduling overhead (HyperFlow-serverless)", runFig4},
	{"fig5", "data movement: monolithic vs FaaS", runFig5},
	{"fig11", "scheduling overhead: HyperFlow-serverless vs FaaSFlow", runFig11},
	{"table4", "total data-movement latency over all edges", runTable4},
	{"fig12", "p99 vs bandwidth sweep for Gen and Vid", runFig12},
	{"fig13", "p99 e2e latency @50MB/s, 6 inv/min", runFig13},
	{"fig14", "co-location interference", runFig14},
	{"fig15", "grouping and scheduling distribution", runFig15},
	{"fig16", "graph scheduler scalability", runFig16},
	{"sec57", "workflow engine component overhead", runSec57},
	{"coldstart", "keep-alive vs cold-start trade-off (extension)", runColdStart},
	{"claims", "the paper's derived headline claims", runClaims},
}, scenarioExperiments()...)

func scenarioExperiments() []experiment {
	out := make([]experiment, len(harness.Scenarios))
	for i, sc := range harness.Scenarios {
		out[i] = experiment{sc.Name, sc.Title, func(n int) error { return runScenario(sc, n) }}
	}
	return out
}

// snapDir, when set, receives every scenario snapshot under its own file
// name; same-seed runs write byte-identical files, which is what CI diffs.
// noAdmission is the overload scenario's counterfactual switch.
var (
	snapDir     string
	noAdmission bool
)

// runScenario runs one harness scenario: it prints the table and summary,
// writes the snapshots, and returns the scenario's gate.
func runScenario(sc harness.Scenario, n int) error {
	res, err := sc.Run(n, noAdmission)
	if err != nil {
		return err
	}
	emit(sc.Name, res.Table)
	for _, line := range res.Summary {
		fmt.Println(line)
	}
	if snapDir != "" {
		for _, s := range res.Snapshots {
			data, err := s.Snapshot.Marshal()
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(snapDir, s.Name), data, 0o644); err != nil {
				return err
			}
		}
	}
	return res.Gate
}

func runFig4(n int) error {
	rows, err := harness.SchedulingOverhead([]harness.System{harness.HyperFlow}, n)
	if err != nil {
		return err
	}
	emit("fig4", harness.RenderOverhead(rows, []harness.System{harness.HyperFlow}))
	emitSVG("fig4", harness.ChartOverhead(rows, []harness.System{harness.HyperFlow}))
	sci, apps := harness.OverheadAverages(rows, harness.HyperFlow)
	fmt.Printf("averages: scientific %s, real-world %s (paper: 712ms / 181.3ms)\n",
		metrics.Millis(sci), metrics.Millis(apps))
	return nil
}

func runFig5(int) error {
	rows, err := harness.DataMovement()
	if err != nil {
		return err
	}
	emit("fig5", harness.RenderMovement(rows))
	emitSVG("fig5", harness.ChartMovement(rows))
	fmt.Println("paper quotes: Cyc 23.95MB -> 1182.3MB (39.5x network), Vid 4.23MB -> 96.82MB (22.9x)")
	return nil
}

func runFig11(n int) error {
	systems := []harness.System{harness.HyperFlow, harness.FaaSFlow}
	rows, err := harness.SchedulingOverhead(systems, n)
	if err != nil {
		return err
	}
	emit("fig11", harness.RenderOverhead(rows, systems))
	emitSVG("fig11", harness.ChartOverhead(rows, systems))
	hSci, hApp := harness.OverheadAverages(rows, harness.HyperFlow)
	fSci, fApp := harness.OverheadAverages(rows, harness.FaaSFlow)
	fmt.Printf("averages: HyperFlow %s/%s, FaaSFlow %s/%s (paper: 712/181.3 -> 141.9/51.4, 74.6%% cut)\n",
		metrics.Millis(hSci), metrics.Millis(hApp), metrics.Millis(fSci), metrics.Millis(fApp))
	red := 1 - (fSci.Seconds()+fApp.Seconds())/(hSci.Seconds()+hApp.Seconds())
	fmt.Printf("measured average reduction: %s\n", metrics.Pct(red))
	return nil
}

func runTable4(n int) error {
	inv := n / 20
	if inv < 3 {
		inv = 3
	}
	rows, err := harness.TransferLatency(inv)
	if err != nil {
		return err
	}
	emit("table4", harness.RenderTransfer(rows))
	emitSVG("table4", harness.ChartTransfer(rows))
	fmt.Println("paper: Cyc 204.2->10.28 (95%), Epi 2.23->0.69 (69%), Gen 29.26->22.17 (24%), Soy 10.06->9.53 (5.2%),")
	fmt.Println("       Vid 4.02->1.03 (74%), IR 0.20->0.13 (35%), FP 1.29->0.49 (62%), WC 1.46->0.21 (70%)")
	return nil
}

func runFig12(n int) error {
	rows, err := harness.TailLatency(
		[]string{"Gen", "Vid"},
		[]harness.System{harness.HyperFlow, harness.FaaSFlowFaaStore},
		[]float64{25, 50, 75, 100},
		[]float64{2, 4, 6, 8},
		n/4)
	if err != nil {
		return err
	}
	emit("fig12", harness.RenderTail(rows))
	emitSVG("fig12-gen", harness.ChartBandwidthSweep(rows, "Gen", 6))
	emitSVG("fig12-vid", harness.ChartBandwidthSweep(rows, "Vid", 6))
	fmt.Println("paper claim: FaaSFlow-FaaStore @25/50MB/s matches HyperFlow @100/75MB/s (1.5x-4x bandwidth utilization)")
	return nil
}

func runFig13(n int) error {
	rows, err := harness.TailLatency(
		[]string{"Cyc", "Epi", "Gen", "Soy", "Vid", "IR", "FP", "WC"},
		[]harness.System{harness.HyperFlow, harness.FaaSFlowFaaStore},
		[]float64{50},
		[]float64{6},
		n)
	if err != nil {
		return err
	}
	emit("fig13", harness.RenderTail(rows))
	emitSVG("fig13", harness.ChartTail(rows))
	fmt.Println("paper: Cyc and Gen hit the 60s timeout under HyperFlow-serverless; FaaSFlow-FaaStore cuts their p99 by 75.2%, others by 23.3%")
	return nil
}

func runFig14(n int) error {
	inv := n / 10
	if inv < 4 {
		inv = 4
	}
	rows, err := harness.CoLocation([]harness.System{harness.HyperFlow, harness.FaaSFlowFaaStore}, inv)
	if err != nil {
		return err
	}
	emit("fig14", harness.RenderCoLocation(rows))
	emitSVG("fig14", harness.ChartCoLocation(rows))
	fmt.Println("paper degradations (HyperFlow): Cyc 50.3%, Gen 48.5%, Vid 84.4%, WC 66.2%; FaaSFlow-FaaStore greatly reduced")
	return nil
}

func runFig15(int) error {
	rows, err := harness.SchedulingDistribution()
	if err != nil {
		return err
	}
	emit("fig15", harness.RenderDistribution(rows, []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"}))
	fmt.Println("paper: 50-node scientific workflows spread across the 7 workers; ~10-node apps land on one worker")
	return nil
}

func runFig16(int) error {
	rows, err := harness.SchedulerScalability([]int{10, 25, 50, 100, 200}, 5)
	if err != nil {
		return err
	}
	emit("fig16", harness.RenderSchedulerCost(rows))
	emitSVG("fig16", harness.ChartSchedulerCost(rows))
	fmt.Println("paper: cost grows ~O(n^2); fine for workflows under 50 nodes")
	return nil
}

func runClaims(n int) error {
	inv := n / 20
	if inv < 5 {
		inv = 5
	}
	ovRows, err := harness.SchedulingOverhead([]harness.System{harness.HyperFlow, harness.FaaSFlow}, inv)
	if err != nil {
		return err
	}
	red := harness.OverheadReduction(ovRows, harness.HyperFlow, harness.FaaSFlow)
	fmt.Printf("scheduling-overhead reduction: %s (paper: 74.6%%)\n", metrics.Pct(red))

	sweep, err := harness.TailLatency([]string{"Gen", "Vid"},
		[]harness.System{harness.HyperFlow, harness.FaaSFlowFaaStore},
		[]float64{25, 50, 75, 100}, []float64{6}, n/4)
	if err != nil {
		return err
	}
	for _, bench := range []string{"Gen", "Vid"} {
		m, merr := harness.BandwidthMultiplier(sweep, bench, harness.HyperFlow, harness.FaaSFlowFaaStore)
		suffix := ""
		if merr != nil {
			suffix = " (lower bound; baseline never caught up in the sweep)"
		}
		fmt.Printf("%s bandwidth-utilization multiplier: %.1fx%s (paper: 1.5x-4x)\n", bench, m, suffix)
		dH, _ := harness.ThroughputDegradation(sweep, bench, harness.HyperFlow)
		dF, _ := harness.ThroughputDegradation(sweep, bench, harness.FaaSFlowFaaStore)
		fmt.Printf("%s p99 degradation when throttled 100->25 MB/s: HyperFlow %s vs FaaSFlow-FaaStore %s (paper: 32.5%% vs <9.5%%)\n",
			bench, metrics.Pct(dH), metrics.Pct(dF))
	}
	return nil
}

func runColdStart(n int) error {
	inv := n / 50
	if inv < 10 {
		inv = 10
	}
	rows, err := harness.ColdStartStudy("WC",
		[]time.Duration{5 * time.Second, 30 * time.Second, 120 * time.Second, 600 * time.Second}, 2, inv)
	if err != nil {
		return err
	}
	emit("coldstart", harness.RenderColdStart(rows))
	fmt.Println("extension: the paper fixes keep-alive at 600s (Table 3); short windows re-pay cold starts at low rates")
	return nil
}

func runSec57(n int) error {
	inv := n / 10
	if inv < 5 {
		inv = 5
	}
	rows, err := harness.EngineOverhead([]int{1, 2, 4, 7, 10, 20, 50, 100}, inv)
	if err != nil {
		return err
	}
	emit("sec57", harness.RenderEngineOverhead(rows))
	fmt.Println("paper: engine uses ~0.12 core / 47MB per worker; resource use scales linearly with cluster size")
	return nil
}
