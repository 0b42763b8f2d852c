// Quickstart: build a three-step ETL workflow with the programmatic
// builder, deploy it on a simulated cluster with FaaStore enabled, run a
// closed-loop batch, and inspect the result.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/faasflow"
)

func main() {
	// An extract -> transform -> load pipeline. Each Function call
	// registers a cost model (exec seconds, peak memory); each Task emits
	// the given payload to its successors.
	wf, err := faasflow.NewWorkflow("etl").
		Function("extract", 0.20, 64<<20).
		Function("transform", 0.35, 128<<20).
		Function("load", 0.10, 32<<20).
		Task("extract-step", "extract", 8<<20).
		Task("transform-step", "transform", 2<<20).
		Task("load-step", "load", 0).
		Pipe("extract-step", "transform-step").
		Pipe("transform-step", "load-step").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	cluster := faasflow.NewCluster(
		faasflow.WithWorkers(3),
		faasflow.WithFaaStore(true),
	)
	app, err := cluster.Deploy(wf, faasflow.DeployOptions{Mode: faasflow.WorkerSP})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("deployed %q: %d tasks in %d group(s), %.0f%% of payload stays worker-local\n",
		wf.Name(), wf.Tasks(), app.Groups(), app.LocalizedFraction()*100)
	placement := app.Placement()
	steps := make([]string, 0, len(placement))
	for step := range placement {
		steps = append(steps, step)
	}
	sort.Strings(steps)
	for _, step := range steps {
		fmt.Printf("  %-16s -> %s\n", step, placement[step])
	}

	stats, err := app.Run(faasflow.RunSpec{N: 100, Warmup: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n100 closed-loop invocations:\n")
	fmt.Printf("  mean %v   p50 %v   p99 %v\n", stats.Mean, stats.P50, stats.P99)
	fmt.Printf("  critical-path exec %v, so engine+data overhead is %v per run\n",
		app.CriticalExec(), stats.Mean-app.CriticalExec())
}
