// Command faasflow-trace works with workflow execution traces: generate a
// synthetic Pegasus-shaped instance, export one of the built-in paper
// benchmarks as a trace, run a trace file through the FaaSFlow engines, or
// analyze runs (attribution, utilization, regression diffing).
//
//	faasflow-trace gen -jobs 50 -seed 7 > genome-like.json
//	faasflow-trace export -bench Epi > epi.json
//	faasflow-trace run -file genome-like.json -mode worker -n 50
//	faasflow-trace report -bench Gen -n 20   # attribution, both patterns
//	faasflow-trace util -bench Gen -n 20 -snapshot run.json
//	faasflow-trace explain -bench Gen -n 200 # causal what-if ranking
//	faasflow-trace diff old.json new.json    # exit 1 on regression
//	faasflow-trace bench diff BENCH_0.json BENCH_1.json  # perf trajectory gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/whatif"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "util":
		err = cmdUtil(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  faasflow-trace gen    -jobs N [-stages K] [-seed S] [-runtime SEC] [-output BYTES]
  faasflow-trace export -bench NAME
  faasflow-trace run    -file TRACE.json [-mode worker|master] [-faastore] [-n N]
  faasflow-trace report -bench NAME | -file TRACE.json [-faastore] [-n N] [-json]
  faasflow-trace util   -bench NAME[,NAME...] [-mode worker|master] [-faastore]
                        [-n N] [-storage-bw MBPS] [-snapshot OUT.json] [-json]
  faasflow-trace explain [-bench NAME] [-mode worker|master] [-faastore] [-n N]
                        [-warmup K] [-tol FRAC] [-sweep OUT.json] [-json] [-gate]
                        [-fastpath]
  faasflow-trace diff   [-noise FRAC] [-floor DUR] [-json] OLD.json NEW.json
  faasflow-trace bench diff [-tol-scale X] [-verbose] [-json] OLD_BENCH.json NEW_BENCH.json`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	jobs := fs.Int("jobs", 50, "job count")
	stages := fs.Int("stages", 3, "pipeline depth per lane")
	seed := fs.Uint64("seed", 1, "generator seed")
	runtime := fs.Float64("runtime", 0.5, "mean job runtime seconds")
	output := fs.Int64("output", 1<<20, "mean job output bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tr, err := trace.Generate(trace.GenerateOptions{
		Jobs: *jobs, Stages: *stages, Seed: *seed,
		MeanRuntime: *runtime, MeanOutput: *output,
	})
	if err != nil {
		return err
	}
	data, err := tr.Marshal()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark to export (Cyc, Epi, Gen, Soy, Vid, IR, FP, WC)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b := workloads.ByName(*bench)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	tr, err := trace.FromBenchmark(b)
	if err != nil {
		return err
	}
	data, err := tr.Marshal()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	file := fs.String("file", "", "trace JSON file")
	mode := fs.String("mode", "worker", "worker or master")
	faastore := fs.Bool("faastore", true, "enable FaaStore")
	n := fs.Int("n", 50, "closed-loop invocations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("missing -file")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	tr, err := trace.Parse(data)
	if err != nil {
		return err
	}
	b, err := tr.ToBenchmark()
	if err != nil {
		return err
	}
	m := engine.ModeWorkerSP
	if *mode == "master" {
		m = engine.ModeMasterSP
	} else if *mode != "worker" {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: *faastore})
	d, err := tb.Deploy(b, engine.Options{Mode: m, Data: engine.DataStore})
	if err != nil {
		return err
	}
	rec := tb.Drive(harness.Client{Target: d.Invoke, Warmup: 1, N: *n})[0].Rec
	local, total := d.Placement.LocalityBytes(b.Graph)
	fmt.Printf("trace %s: %d jobs, %d groups, %.0f%% payload local\n",
		tr.Name, len(tr.Jobs), len(d.Placement.Groups), 100*float64(local)/float64(total+1))
	fmt.Printf("%d invocations (%s): mean=%v p50=%v p99=%v\n",
		rec.Count(), m, rec.Mean(), rec.Percentile(0.5), rec.P99())
	return nil
}

// cmdReport runs the workload under both scheduling patterns with the
// observability bus attached and prints each pattern's critical-path
// latency attribution — the component view behind the paper's
// WorkerSP-vs-MasterSP overhead comparison.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark to analyze (Cyc, Epi, Gen, Soy, Vid, IR, FP, WC)")
	file := fs.String("file", "", "trace JSON file to analyze instead of a benchmark")
	faastore := fs.Bool("faastore", true, "enable FaaStore")
	n := fs.Int("n", 20, "closed-loop invocations per pattern")
	jsonOut := fs.Bool("json", false, "emit the attribution as JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var b *workloads.Benchmark
	switch {
	case *bench != "" && *file != "":
		return fmt.Errorf("pass -bench or -file, not both")
	case *bench != "":
		b = workloads.ByName(*bench)
		if b == nil {
			return fmt.Errorf("unknown benchmark %q", *bench)
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		tr, err := trace.Parse(data)
		if err != nil {
			return err
		}
		if b, err = tr.ToBenchmark(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pass -bench NAME or -file TRACE.json")
	}
	// reportEntry is the -json shape: one entry per scheduling pattern.
	type reportEntry struct {
		Workflow     string           `json:"workflow"`
		Mode         string           `json:"mode"`
		Count        int              `json:"count"`
		MeanTotalNs  int64            `json:"meanTotalNs"`
		ComponentsNs map[string]int64 `json:"componentsNs"`
	}
	var entries []reportEntry
	for _, m := range []engine.Mode{engine.ModeWorkerSP, engine.ModeMasterSP} {
		tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: *faastore})
		bus := obs.NewBus()
		log := obs.NewTraceLog()
		bus.Subscribe(log.Record)
		tb.AttachBus(bus)
		d, err := tb.Deploy(b, engine.Options{Mode: m, Data: engine.DataStore})
		if err != nil {
			return err
		}
		tb.Drive(harness.Client{Target: d.Invoke, Warmup: 1, N: *n})
		s := obs.Summarize(obs.AnalyzeAll(log))
		if *jsonOut {
			comps := map[string]int64{}
			for c, dur := range s.Mean {
				comps[c.String()] = int64(dur)
			}
			entries = append(entries, reportEntry{
				Workflow:     b.Name,
				Mode:         fmt.Sprint(m),
				Count:        s.Count,
				MeanTotalNs:  int64(s.MeanTotal),
				ComponentsNs: comps,
			})
			continue
		}
		fmt.Printf("%s %s\n%s", b.Name, m, s.String())
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(entries)
	}
	return nil
}

// cmdUtil runs benchmarks under one scheduling pattern with the flight
// recorder attached and prints per-resource utilization summaries plus the
// bottleneck attribution; -snapshot writes the full artifact for diffing.
func cmdUtil(args []string) error {
	fs := flag.NewFlagSet("util", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark name(s), comma separated (Cyc, Epi, Gen, Soy, Vid, IR, FP, WC)")
	mode := fs.String("mode", "worker", "worker or master")
	faastore := fs.Bool("faastore", true, "enable FaaStore (worker mode only)")
	n := fs.Int("n", 20, "closed-loop invocations per benchmark")
	storageMB := fs.Float64("storage-bw", 50, "storage link bandwidth in MB/s")
	snapshot := fs.String("snapshot", "", "write the flight-recorder snapshot JSON here")
	jsonOut := fs.Bool("json", false, "emit utilization summaries as JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *bench == "" {
		return fmt.Errorf("missing -bench")
	}
	var sys harness.System
	switch {
	case *mode == "master":
		sys = harness.HyperFlow
	case *mode == "worker" && *faastore:
		sys = harness.FaaSFlowFaaStore
	case *mode == "worker":
		sys = harness.FaaSFlow
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	names := strings.Split(*bench, ",")
	snap, err := harness.RunSnapshot(sys, names, *n, network.MBps(*storageMB), map[string]string{
		"benchmarks": *bench,
		"mode":       *mode,
	})
	if err != nil {
		return err
	}
	if *snapshot != "" {
		data, err := snap.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*snapshot, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", *snapshot, len(snap.Events))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(snap.Utilization)
	}
	fmt.Printf("utilization (%s, %d resource(s)):\n", sys, len(snap.Utilization))
	fmt.Printf("  %-24s %12s %12s %12s %6s %6s\n", "resource", "mean", "peak", "p95", "busy%", "occ%")
	for _, rs := range snap.Utilization {
		fmt.Printf("  %-24s %12.3g %12.3g %12.3g %5.1f%% %5.1f%%\n",
			rs.Name, rs.Mean, rs.Peak, rs.P95, 100*rs.BusyFrac, 100*rs.MeanOcc)
	}
	fmt.Println()
	for _, s := range obs.SummarizeBottlenecks(obs.AttributeBottlenecks(snap.Log())) {
		fmt.Print(s.String())
	}
	return nil
}

// cmdExplain runs the causal what-if profiler: every cost dimension is
// virtually sped up by re-executing the identical scenario with that cost
// scaled, and the dimensions are ranked by the measured ×0.5 gain. Each
// prediction from the critical-path breakdown is validated against the
// measured counterfactual; -gate makes a disagreement exit non-zero.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	bench := fs.String("bench", "Gen", "benchmark to profile (Cyc, Epi, Gen, Soy, Vid, IR, FP, WC)")
	mode := fs.String("mode", "worker", "worker or master")
	faastore := fs.Bool("faastore", true, "enable FaaStore")
	n := fs.Int("n", 200, "closed-loop invocations per counterfactual run")
	warmup := fs.Int("warmup", 2, "warmup invocations excluded from attribution")
	tol := fs.Float64("tol", whatif.DefaultTolerance, "predicted-vs-measured agreement tolerance (fraction of baseline mean)")
	sweepOut := fs.String("sweep", "", "write the full sweep profile JSON here")
	jsonOut := fs.Bool("json", false, "emit the explanation as JSON instead of the report")
	gate := fs.Bool("gate", false, "exit non-zero when any dimension fails the agreement gate")
	fastpath := fs.Bool("fastpath", false, "enable the data-plane fast path (direct passing + pre-warm) in the profiled scenario")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b := workloads.ByName(*bench)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	m := engine.ModeWorkerSP
	if *mode == "master" {
		m = engine.ModeMasterSP
	} else if *mode != "worker" {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	sc := whatif.Scenario{
		Bench:  b,
		Spec:   harness.ClusterSpec{FaaStore: *faastore},
		Opts:   engine.Options{Mode: m, Data: engine.DataStore},
		Warmup: *warmup,
		N:      *n,
	}
	if *fastpath {
		sc.Opts.FastPath = engine.FastPathOptions{DirectPassing: true, Prewarm: true}
	}
	ex, err := whatif.Explain(sc, nil, *tol)
	if err != nil {
		return err
	}
	if *sweepOut != "" {
		data, err := ex.Profile.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*sweepOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d curves)\n", *sweepOut, len(ex.Profile.Curves))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(ex); err != nil {
			return err
		}
	} else {
		fmt.Print(ex.String())
	}
	if *gate && ex.Discrepancies > 0 {
		return fmt.Errorf("%d dimension(s) failed the predicted-vs-measured gate", ex.Discrepancies)
	}
	return nil
}

// cmdBench works with BENCH_<seq>.json performance snapshots (written by
// faasflow-experiments -benchjson). Its diff sub-subcommand mirrors the
// flight-recorder differ but gates each metric with the tolerance baked
// into the baseline snapshot — generous on host timing, tight on
// deterministic domain figures — exiting non-zero on regressions.
func cmdBench(args []string) error {
	if len(args) < 1 || args[0] != "diff" {
		return fmt.Errorf("usage: faasflow-trace bench diff [-tol-scale X] [-verbose] [-json] OLD.json NEW.json")
	}
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	tolScale := fs.Float64("tol-scale", 1, "multiply every metric's tolerance (CI smoke uses 2)")
	verbose := fs.Bool("verbose", false, "print every compared metric, not just flagged ones")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of a table")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two BENCH files, got %d", fs.NArg())
	}
	load := func(path string) (*perf.BenchSnapshot, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return perf.ParseBench(data)
	}
	oldS, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newS, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	res := perf.DiffBench(oldS, newS, *tolScale)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else if *verbose {
		fmt.Print(res.VerboseString())
	} else {
		fmt.Print(res.String())
	}
	if res.Regressions > 0 {
		return fmt.Errorf("%d perf regression(s) detected", res.Regressions)
	}
	return nil
}

// cmdDiff compares two snapshots and exits non-zero when a regression
// beyond the noise thresholds is flagged — the CI gate.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	noise := fs.Float64("noise", 0.02, "relative change below which a delta is noise")
	floor := fs.Duration("floor", time.Millisecond, "absolute change below which a delta is noise")
	jsonOut := fs.Bool("json", false, "emit the diff as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two snapshot files, got %d", fs.NArg())
	}
	load := func(path string) (*obs.Snapshot, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return obs.ParseSnapshot(data)
	}
	oldS, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newS, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	res := obs.Diff(oldS, newS, obs.DiffOptions{NoiseFrac: *noise, NoiseFloorNs: int64(*floor)})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Print(res.String())
	}
	if res.Regressions > 0 {
		return fmt.Errorf("%d regression(s) detected", res.Regressions)
	}
	return nil
}
