// Scientific: run the Genome workflow (one of the paper's four Pegasus
// workloads) and exercise the feedback partition loop — invoke, collect
// observed container scale, regroup, red-black redeploy — the mechanism of
// the paper's Figure 10.
package main

import (
	"fmt"
	"log"

	"repro/faasflow"
)

func main() {
	wf := faasflow.Benchmark("Gen")
	cluster := faasflow.NewCluster(faasflow.WithFaaStore(true), faasflow.WithSeed(3))
	app, err := cluster.Deploy(wf, faasflow.DeployOptions{Mode: faasflow.WorkerSP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Genome: %d task nodes, %.0f MB per invocation\n", wf.Tasks(), float64(wf.TotalBytes())/1e6)
	fmt.Printf("initial partition: %d groups, %.0f%% of payload local\n",
		app.Groups(), app.LocalizedFraction()*100)

	for iter := 1; iter <= 3; iter++ {
		stats, err := app.Run(faasflow.RunSpec{N: 20, Warmup: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iteration %d: mean %v  p99 %v  (%d groups, %.0f%% local)\n",
			iter, stats.Mean, stats.P99, app.Groups(), app.LocalizedFraction()*100)
		// Feedback: observed container scale flows back into Algorithm 1
		// and the engines pick up the new sub-graphs red-black.
		if err := app.Refresh(); err != nil {
			log.Fatal(err)
		}
	}

	// Compare against the centralized baseline on a fresh cluster.
	base, err := faasflow.NewCluster(faasflow.WithFaaStore(false), faasflow.WithSeed(3)).
		Deploy(faasflow.Benchmark("Gen"), faasflow.DeployOptions{Mode: faasflow.MasterSP})
	if err != nil {
		log.Fatal(err)
	}
	b, err := base.Run(faasflow.RunSpec{N: 20, Warmup: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHyperFlow-style baseline: mean %v  p99 %v\n", b.Mean, b.P99)
}
