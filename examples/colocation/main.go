// Colocation: run several workflows on one shared cluster and watch
// interference — the paper's §5.5 scenario. The worker-side pattern with
// FaaStore keeps co-running tenants out of each other's way because their
// intermediate data never touches the shared storage link.
package main

import (
	"fmt"
	"log"

	"repro/faasflow"
)

func main() {
	names := []string{"Cyc", "Gen", "Vid", "WC"}

	fmt.Println("mean latency solo vs co-located (20 closed-loop invocations each):")
	for _, cfg := range []struct {
		label    string
		mode     faasflow.Mode
		faastore bool
	}{
		{"HyperFlow-style (MasterSP, remote store only)", faasflow.MasterSP, false},
		{"FaaSFlow (WorkerSP, FaaStore)", faasflow.WorkerSP, true},
	} {
		fmt.Printf("\n-- %s --\n", cfg.label)
		fmt.Printf("%-5s  %-14s  %-14s  %s\n", "app", "solo", "co-located", "slowdown")

		// Solo runs: each tenant gets the whole cluster to itself.
		solo := map[string]faasflow.Stats{}
		for _, name := range names {
			cluster := faasflow.NewCluster(faasflow.WithFaaStore(cfg.faastore), faasflow.WithSeed(9))
			app, err := cluster.Deploy(faasflow.Benchmark(name), faasflow.DeployOptions{Mode: cfg.mode})
			if err != nil {
				log.Fatal(err)
			}
			solo[name], err = app.Run(faasflow.RunSpec{N: 20, Warmup: 1})
			if err != nil {
				log.Fatal(err)
			}
		}

		// Co-run: all four tenants share one cluster, one closed-loop
		// client each, driven concurrently.
		shared := faasflow.NewCluster(faasflow.WithFaaStore(cfg.faastore), faasflow.WithSeed(9))
		var batches []faasflow.Batch
		for _, name := range names {
			app, err := shared.Deploy(faasflow.Benchmark(name), faasflow.DeployOptions{Mode: cfg.mode})
			if err != nil {
				log.Fatal(err)
			}
			batches = append(batches, faasflow.Batch{App: app, Spec: faasflow.RunSpec{N: 20, Warmup: 1}})
		}
		co, err := shared.Run(batches...)
		if err != nil {
			log.Fatal(err)
		}
		for i, name := range names {
			s, c := solo[name], co[i]
			fmt.Printf("%-5s  %-14v  %-14v  %+.0f%%\n", name, s.Mean, c.Mean,
				100*(c.Mean.Seconds()-s.Mean.Seconds())/s.Mean.Seconds())
		}
	}
}
