package faasflow_test

import (
	"fmt"

	"repro/faasflow"
)

// Build a workflow programmatically, deploy it with FaaStore, and inspect
// the scheduler's work. Every run is deterministic, so the output is too.
func Example() {
	wf, err := faasflow.NewWorkflow("etl").
		Function("extract", 0.2, 64<<20).
		Function("load", 0.1, 32<<20).
		Task("extract-step", "extract", 4<<20).
		Task("load-step", "load", 0).
		Pipe("extract-step", "load-step").
		Build()
	if err != nil {
		panic(err)
	}
	cluster := faasflow.NewCluster(faasflow.WithFaaStore(true), faasflow.WithSeed(1))
	app, err := cluster.Deploy(wf, faasflow.DeployOptions{Mode: faasflow.WorkerSP})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d tasks in %d group(s), %.0f%% of payload local\n",
		wf.Tasks(), app.Groups(), app.LocalizedFraction()*100)
	// Output:
	// 2 tasks in 1 group(s), 100% of payload local
}

// Deploy with a write-ahead journal and output memoization: every step
// commits one journal record, and repeated inputs replay cached outputs
// instead of executing.
func ExampleCluster_Deploy() {
	cluster := faasflow.NewCluster(faasflow.WithSeed(1))
	app, err := cluster.Deploy(faasflow.Benchmark("IR"), faasflow.DeployOptions{
		Mode:       faasflow.WorkerSP,
		FastPath:   faasflow.FastPath{Memoize: true},
		Durability: &faasflow.Durability{},
	})
	if err != nil {
		panic(err)
	}
	stats, err := app.Run(faasflow.RunSpec{N: 3, Warmup: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("durable:", app.Durable(), "completed:", stats.Count)
	fmt.Println("journal records:", len(app.JournalEntries()))
	fmt.Println("memo hits:", app.FastPathStats().MemoHits)
	// Output:
	// durable: true completed: 3
	// journal records: 24
	// memo hits: 18
}

// Compile a workflow from the paper's Workflow Definition Language.
func ExampleWorkflowFromWDL() {
	src := `
name: thumbnails
steps:
  - name: fetch
    function: fetch
    output: 2097152
  - name: resize
    type: foreach
    width: 3
    steps:
      - name: scale
        function: scale
        output: 524288
  - name: publish
    function: publish
`
	wf, err := faasflow.WorkflowFromWDL(src, map[string]faasflow.FunctionSpec{
		"fetch":   {ExecSeconds: 0.1},
		"scale":   {ExecSeconds: 0.4},
		"publish": {ExecSeconds: 0.1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(wf.Name(), wf.Tasks())
	// Output:
	// thumbnails 3
}

// The eight workloads of the paper's evaluation ship with the library.
func ExampleBenchmarks() {
	for _, wf := range faasflow.Benchmarks() {
		fmt.Printf("%s: %d tasks\n", wf.Name(), wf.Tasks())
	}
	// Output:
	// Cyc: 50 tasks
	// Epi: 50 tasks
	// Gen: 50 tasks
	// Soy: 50 tasks
	// Vid: 10 tasks
	// IR: 6 tasks
	// FP: 5 tasks
	// WC: 14 tasks
}

// Snapshots of identical runs are byte-identical, so a diff between them
// is always clean — the property the CI regression gate relies on.
func ExampleDiffSnapshots() {
	capture := func() *faasflow.Snapshot {
		cluster := faasflow.NewCluster(faasflow.WithSeed(1))
		o := faasflow.NewObserver()
		cluster.AttachObserver(o)
		app, err := cluster.Deploy(faasflow.Benchmark("FP"), faasflow.DeployOptions{Mode: faasflow.WorkerSP})
		if err != nil {
			panic(err)
		}
		if _, err := app.Run(faasflow.RunSpec{N: 5, Warmup: 1}); err != nil {
			panic(err)
		}
		return o.Snapshot(map[string]string{"system": "WorkerSP"})
	}
	diff := faasflow.DiffSnapshots(capture(), capture())
	fmt.Printf("regressions: %d\n", diff.Regressions)
	// Output:
	// regressions: 0
}

// Switch steps route per invocation when arguments are supplied.
func ExampleApp_Run() {
	src := `
name: router
steps:
  - name: ingest
    function: ingest
  - name: pick
    type: switch
    choices:
      - condition: "$tier == 'premium'"
        steps:
          - name: full
            function: full
      - steps:
          - name: lite
            function: lite
`
	wf, err := faasflow.WorkflowFromWDL(src, map[string]faasflow.FunctionSpec{
		"ingest": {ExecSeconds: 0.05},
		"full":   {ExecSeconds: 2.0},
		"lite":   {ExecSeconds: 0.1},
	})
	if err != nil {
		panic(err)
	}
	app, err := faasflow.NewCluster(faasflow.WithSeed(1)).Deploy(wf, faasflow.DeployOptions{Mode: faasflow.WorkerSP})
	if err != nil {
		panic(err)
	}
	premium, err := app.Run(faasflow.RunSpec{N: 3, Invoke: faasflow.InvokeOptions{Args: map[string]any{"tier": "premium"}}})
	if err != nil {
		panic(err)
	}
	free, err := app.Run(faasflow.RunSpec{N: 3, Invoke: faasflow.InvokeOptions{Args: map[string]any{"tier": "free"}}})
	if err != nil {
		panic(err)
	}
	fmt.Println(premium.Mean > free.Mean)
	// Output:
	// true
}
