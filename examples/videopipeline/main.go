// Videopipeline: the workload from the paper's motivation — an
// FFmpeg-style parallel transcoding workflow defined in WDL — run under
// both scheduling patterns and across storage-bandwidth settings,
// reproducing the reason FaaSFlow exists: the master-side pattern plus
// remote-only storage collapses when the shared storage link gets thin.
package main

import (
	"fmt"
	"log"

	"repro/faasflow"
)

const videoWDL = `
name: video-pipeline
steps:
  - name: probe
    function: probe
    output: 4435476        # the full 4.23 MB video goes to every branch
  - name: transcode
    type: foreach
    width: 6
    steps:
      - name: encode
        function: encode
        output: 1572864    # each branch returns a 1.5 MB rendition
  - name: package
    function: package
`

func main() {
	fns := map[string]faasflow.FunctionSpec{
		"probe":   {ExecSeconds: 0.3, MemPeak: 96 << 20},
		"encode":  {ExecSeconds: 1.8, MemPeak: 200 << 20},
		"package": {ExecSeconds: 0.5, MemPeak: 128 << 20},
	}
	wf, err := faasflow.WorkflowFromWDL(videoWDL, fns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video pipeline: %d tasks, %.1f MB moved per invocation (full video to every branch)\n\n",
		wf.Tasks(), float64(wf.TotalBytes())/1e6)

	fmt.Println("p99 latency, 30 open-loop invocations at 6/min:")
	fmt.Printf("%-10s  %-28s  %s\n", "storage", "HyperFlow-style (MasterSP,", "FaaSFlow (WorkerSP,")
	fmt.Printf("%-10s  %-28s  %s\n", "", "  remote store only)", "  FaaStore)")
	for _, bw := range []float64{25, 50, 100} {
		baseline := run(wf, faasflow.MasterSP, false, bw)
		faas := run(wf, faasflow.WorkerSP, true, bw)
		fmt.Printf("%3.0f MB/s   %-28v  %v\n", bw, baseline.P99, faas.P99)
	}
	fmt.Println("\nThe FaaSFlow column barely moves: after grouping, the video never")
	fmt.Println("leaves the worker that probes it, so storage bandwidth stops mattering.")
}

func run(wf *faasflow.Workflow, mode faasflow.Mode, faastore bool, storageMB float64) faasflow.Stats {
	cluster := faasflow.NewCluster(
		faasflow.WithFaaStore(faastore),
		faasflow.WithStorageBandwidthMBps(storageMB),
		faasflow.WithSeed(42),
	)
	app, err := cluster.Deploy(wf, faasflow.DeployOptions{Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := app.Run(faasflow.RunSpec{N: 30, PerMinute: 6, Warmup: 1})
	if err != nil {
		log.Fatal(err)
	}
	return stats
}
