// Command faasflow runs a workflow — one of the paper's benchmarks or a
// user WDL file — on the simulated cluster and prints a run report.
//
// Usage:
//
//	faasflow -bench Vid -mode worker -faastore -n 100
//	faasflow -wdl pipeline.yaml -exec "fa=0.2,fb=0.5" -n 50
//	faasflow -bench Gen -mode master -rate 6 -n 200   # open loop
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/faasflow"
)

func main() {
	var (
		benchName = flag.String("bench", "", "paper benchmark to run (Cyc, Epi, Gen, Soy, Vid, IR, FP, WC)")
		wdlPath   = flag.String("wdl", "", "WDL YAML file to run instead of a benchmark")
		execSpecs = flag.String("exec", "", "function exec times for -wdl, e.g. \"fa=0.2,fb=0.5\" (seconds)")
		mode      = flag.String("mode", "worker", "scheduling pattern: worker (FaaSFlow) or master (HyperFlow-serverless)")
		faastore  = flag.Bool("faastore", true, "enable FaaStore adaptive in-memory storage")
		workers   = flag.Int("workers", 7, "worker node count")
		storageMB = flag.Float64("storage-bw", 50, "storage node bandwidth in MB/s")
		n         = flag.Int("n", 100, "invocations to run")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate per minute (0 = closed loop)")
		seed      = flag.Uint64("seed", 1, "placement seed")
		tracePath = flag.String("trace", "", "write a Chrome trace of the run to this file")
		argSpecs  = flag.String("args", "", "invocation arguments for switch conditions, e.g. \"q=1080,tier=premium\"")
		report    = flag.Bool("report", false, "print the critical-path latency attribution after the run")
	)
	flag.Parse()

	wf, err := loadWorkflow(*benchName, *wdlPath, *execSpecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow:", err)
		os.Exit(1)
	}
	m := faasflow.WorkerSP
	switch *mode {
	case "worker":
	case "master":
		m = faasflow.MasterSP
	default:
		fmt.Fprintf(os.Stderr, "faasflow: unknown mode %q (want worker or master)\n", *mode)
		os.Exit(1)
	}

	cluster := faasflow.NewCluster(
		faasflow.WithWorkers(*workers),
		faasflow.WithStorageBandwidthMBps(*storageMB),
		faasflow.WithFaaStore(*faastore),
		faasflow.WithSeed(*seed),
	)
	var observer *faasflow.Observer
	if *report || *tracePath != "" {
		observer = faasflow.NewObserver()
		cluster.AttachObserver(observer)
	}
	app, err := cluster.Deploy(wf, faasflow.DeployOptions{Mode: m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow:", err)
		os.Exit(1)
	}

	fmt.Printf("workflow %s: %d tasks, %.2f MB per invocation, %d groups, %.0f%% payload local\n",
		wf.Name(), wf.Tasks(), float64(wf.TotalBytes())/1e6, app.Groups(), app.LocalizedFraction()*100)
	printPlacement(app)

	args, err := parseArgs(*argSpecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow:", err)
		os.Exit(1)
	}
	spec := faasflow.RunSpec{N: *n, PerMinute: *rate, Warmup: 1}
	switch {
	case *rate > 0:
		fmt.Printf("\nopen loop: %d invocations at %.1f/min (%s, faastore=%v)\n", *n, *rate, m, *faastore)
	case args != nil:
		fmt.Printf("\nclosed loop with args %v: %d invocations (%s)\n", args, *n, m)
		spec.Invoke.Args, spec.Warmup = args, 0
	default:
		fmt.Printf("\nclosed loop: %d invocations (%s, faastore=%v)\n", *n, m, *faastore)
	}
	stats, err := app.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faasflow:", err)
		os.Exit(1)
	}
	fmt.Printf("latency: mean=%v p50=%v p99=%v max=%v\n", stats.Mean, stats.P50, stats.P99, stats.Max)
	fmt.Printf("critical-path exec: %v (scheduling+data overhead: mean %v)\n",
		app.CriticalExec(), stats.Mean-app.CriticalExec())
	if stats.Timeouts > 0 {
		fmt.Printf("timeouts: %.1f%% of invocations hit the 60s deadline\n", stats.Timeouts*100)
	}
	if *report {
		fmt.Printf("\n%s", observer.ReportText())
	}
	if *tracePath != "" {
		data, err := observer.ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "faasflow:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "faasflow:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (load in chrome://tracing)\n", *tracePath)
	}
}

func loadWorkflow(benchName, wdlPath, execSpecs string) (*faasflow.Workflow, error) {
	switch {
	case benchName != "" && wdlPath != "":
		return nil, fmt.Errorf("pass -bench or -wdl, not both")
	case benchName != "":
		wf := faasflow.Benchmark(benchName)
		if wf == nil {
			return nil, fmt.Errorf("unknown benchmark %q", benchName)
		}
		return wf, nil
	case wdlPath != "":
		src, err := os.ReadFile(wdlPath)
		if err != nil {
			return nil, err
		}
		fns, err := parseExecSpecs(execSpecs)
		if err != nil {
			return nil, err
		}
		return faasflow.WorkflowFromWDL(string(src), fns)
	default:
		return nil, fmt.Errorf("pass -bench <name> or -wdl <file>")
	}
}

// parseArgs parses "k=v,k2=v2" invocation arguments; numeric values become
// float64, everything else stays a string. Empty input means nil (run all
// switch branches).
func parseArgs(s string) (map[string]any, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]any{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad -args entry %q (want name=value)", part)
		}
		if f, err := strconv.ParseFloat(kv[1], 64); err == nil {
			out[kv[0]] = f
		} else {
			out[kv[0]] = kv[1]
		}
	}
	return out, nil
}

func parseExecSpecs(s string) (map[string]faasflow.FunctionSpec, error) {
	fns := map[string]faasflow.FunctionSpec{}
	if s == "" {
		return fns, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad -exec entry %q (want name=seconds)", part)
		}
		sec, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exec time in %q: %v", part, err)
		}
		fns[kv[0]] = faasflow.FunctionSpec{ExecSeconds: sec}
	}
	return fns, nil
}

func printPlacement(app *faasflow.App) {
	place := app.Placement()
	byWorker := map[string][]string{}
	for step, w := range place {
		byWorker[w] = append(byWorker[w], step)
	}
	workers := make([]string, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		steps := byWorker[w]
		sort.Strings(steps)
		if len(steps) > 6 {
			fmt.Printf("  %s: %s ... (%d steps)\n", w, strings.Join(steps[:6], " "), len(steps))
		} else {
			fmt.Printf("  %s: %s\n", w, strings.Join(steps, " "))
		}
	}
}
