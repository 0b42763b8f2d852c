// Observability walkthrough: attach an Observer to a cluster, run the
// Video benchmark under both scheduling patterns on a throttled storage
// link, and use the analysis layer end to end — critical-path report,
// utilization timelines, bottleneck attribution, flight-recorder
// snapshots, and a run-to-run diff that would gate a CI pipeline.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/faasflow"
)

func run(mode faasflow.Mode, faastore bool) (*faasflow.Observer, faasflow.Stats) {
	cluster := faasflow.NewCluster(
		faasflow.WithWorkers(7),
		faasflow.WithFaaStore(faastore),
		// Throttle the storage node the way the paper's wondershaper
		// sweeps do, so the data path is the contended resource.
		faasflow.WithStorageBandwidthMBps(5),
	)
	o := faasflow.NewObserver()
	cluster.AttachObserver(o)
	app, err := cluster.Deploy(faasflow.Benchmark("Vid"), faasflow.DeployOptions{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := app.Run(faasflow.RunSpec{N: 10, Warmup: 1})
	if err != nil {
		log.Fatal(err)
	}
	return o, stats
}

func main() {
	masterObs, masterStats := run(faasflow.MasterSP, false)
	workerObs, workerStats := run(faasflow.WorkerSP, true)
	fmt.Printf("Vid x10, storage throttled to 5 MB/s:\n")
	fmt.Printf("  MasterSP            mean %v\n", masterStats.Mean)
	fmt.Printf("  WorkerSP + FaaStore mean %v\n\n", workerStats.Mean)

	// Bottleneck attribution joins each invocation's critical path with
	// the saturation of the resource each segment ran on. Under MasterSP
	// every intermediate crosses the storage link; FaaStore keeps them
	// worker-local, so the dominant bottleneck moves off that link.
	for _, run := range []struct {
		name string
		o    *faasflow.Observer
	}{{"MasterSP", masterObs}, {"WorkerSP+FaaStore", workerObs}} {
		for _, s := range run.o.Bottlenecks() {
			fmt.Printf("[%s] %s", run.name, s)
		}
	}

	// Utilization summaries: pick out the storage link and the busiest CPU.
	fmt.Printf("\nresources that hit ≥90%% peak occupancy under MasterSP:\n")
	for _, r := range masterObs.Utilization() {
		if r.PeakOcc >= 0.9 {
			fmt.Printf("  %-22s mean occupancy %4.0f%%  peak %4.0f%%  busy %4.0f%%\n",
				r.Name, r.MeanOcc*100, r.PeakOcc*100, r.BusyFrac*100)
		}
	}

	// Flight-recorder snapshots: versioned JSON carrying the full event
	// log, latency stats, and utilization. Identical runs are
	// byte-identical, so diffing two snapshots of the same commit gates a
	// CI pipeline with zero noise.
	oldSnap := masterObs.Snapshot(map[string]string{"system": "MasterSP"})
	newSnap := workerObs.Snapshot(map[string]string{"system": "WorkerSP+FaaStore"})
	if data, err := oldSnap.Marshal(); err == nil {
		if err := os.WriteFile("master.snapshot.json", data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote master.snapshot.json (%d bytes)\n", len(data))
	}

	// The diff engine reads latency percentiles per (workflow, mode) group.
	// Here the groups differ (Vid/MasterSP vs Vid/WorkerSP), so the diff
	// reports them as one-sided rather than regressed.
	diff := faasflow.DiffSnapshots(oldSnap, newSnap)
	fmt.Printf("\nsnapshot diff:\n%s", diff)
}
