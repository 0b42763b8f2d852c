package faasflow

import (
	"strings"
	"testing"
	"time"
)

func buildPipeline(t *testing.T) *Workflow {
	t.Helper()
	wf, err := NewWorkflow("pipeline").
		Function("extract", 0.2, 64<<20).
		Function("transform", 0.3, 96<<20).
		Function("load", 0.1, 32<<20).
		Task("extract-step", "extract", 4<<20).
		Task("transform-step", "transform", 2<<20).
		Task("load-step", "load", 0).
		Pipe("extract-step", "transform-step").
		Pipe("transform-step", "load-step").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func TestBuilderHappyPath(t *testing.T) {
	wf := buildPipeline(t)
	if wf.Name() != "pipeline" || wf.Tasks() != 3 {
		t.Fatalf("wf = %s with %d tasks", wf.Name(), wf.Tasks())
	}
	if wf.TotalBytes() != 6<<20 {
		t.Fatalf("TotalBytes = %d", wf.TotalBytes())
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Workflow, error)
		want  string
	}{
		{"bad exec", func() (*Workflow, error) {
			return NewWorkflow("x").Function("f", 0, 1).Build()
		}, "non-positive"},
		{"dup step", func() (*Workflow, error) {
			return NewWorkflow("x").Function("f", 1, 1).
				Task("a", "f", 0).Task("a", "f", 0).Build()
		}, "duplicate step"},
		{"unknown pipe", func() (*Workflow, error) {
			return NewWorkflow("x").Function("f", 1, 1).
				Task("a", "f", 0).Pipe("a", "ghost").Build()
		}, "unknown step"},
		{"unknown function", func() (*Workflow, error) {
			return NewWorkflow("x").Task("a", "nope", 0).Build()
		}, "unknown function"},
		{"negative output", func() (*Workflow, error) {
			return NewWorkflow("x").Function("f", 1, 1).Task("a", "f", -1).Build()
		}, "negative output"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestDeployAndRun(t *testing.T) {
	wf := buildPipeline(t)
	c := NewCluster(WithWorkers(3), WithFaaStore(true), WithSeed(1))
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	stats := mustRun(t, app, RunSpec{N: 10, Warmup: 1})
	if stats.Count != 10 {
		t.Fatalf("Count = %d", stats.Count)
	}
	if stats.Mean < app.CriticalExec() {
		t.Fatalf("mean %v below critical exec %v", stats.Mean, app.CriticalExec())
	}
	if stats.P99 < stats.P50 || stats.Max < stats.P99 {
		t.Fatalf("percentile ordering broken: %+v", stats)
	}
}

func TestChainLocalizesFully(t *testing.T) {
	wf := buildPipeline(t)
	c := NewCluster(WithFaaStore(true))
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	if f := app.LocalizedFraction(); f != 1.0 {
		t.Fatalf("chain locality = %v, want 1.0", f)
	}
	if app.Groups() != 1 {
		t.Fatalf("groups = %d, want 1", app.Groups())
	}
	place := app.Placement()
	if len(place) != 3 {
		t.Fatalf("placement has %d steps", len(place))
	}
	w := place["extract-step"]
	for step, ww := range place {
		if ww != w {
			t.Fatalf("step %s on %s, want all on %s", step, ww, w)
		}
	}
}

func TestWorkerSPFasterThanMasterSP(t *testing.T) {
	run := func(mode Mode) Stats {
		wf := buildPipeline(t)
		c := NewCluster(WithSeed(7))
		app, err := c.Deploy(wf, DeployOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, app, RunSpec{N: 20, Warmup: 1})
	}
	w, m := run(WorkerSP), run(MasterSP)
	if w.Mean >= m.Mean {
		t.Fatalf("WorkerSP mean %v >= MasterSP mean %v", w.Mean, m.Mean)
	}
}

func TestOpenLoopStats(t *testing.T) {
	wf := Benchmark("WC")
	c := NewCluster()
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	stats := mustRun(t, app, RunSpec{N: 20, PerMinute: 30, Warmup: 1})
	if stats.Count != 20 {
		t.Fatalf("Count = %d", stats.Count)
	}
	if stats.Timeouts < 0 || stats.Timeouts > 1 {
		t.Fatalf("Timeouts = %v", stats.Timeouts)
	}
}

func TestBenchmarksExposed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("Benchmarks() = %d", len(bs))
	}
	if Benchmark("Cyc") == nil || Benchmark("nope") != nil {
		t.Fatal("Benchmark lookup broken")
	}
	if Benchmark("Cyc").Tasks() != 50 {
		t.Fatal("Cyc task count wrong")
	}
}

func TestWorkflowFromWDL(t *testing.T) {
	src := `
name: wdlflow
default_output: 1048576
steps:
  - name: a
    function: fa
  - name: fan
    type: parallel
    branches:
      - steps:
          - name: b
            function: fb
      - steps:
          - name: c
            function: fc
  - name: d
    function: fd
`
	fns := map[string]FunctionSpec{
		"fa": {ExecSeconds: 0.1},
		"fb": {ExecSeconds: 0.1},
		"fc": {ExecSeconds: 0.1},
		"fd": {ExecSeconds: 0.1},
	}
	wf, err := WorkflowFromWDL(src, fns)
	if err != nil {
		t.Fatal(err)
	}
	if wf.Tasks() != 4 {
		t.Fatalf("tasks = %d", wf.Tasks())
	}
	c := NewCluster(WithWorkers(2))
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	if stats := mustRun(t, app, RunSpec{N: 3, Warmup: 1}); stats.Count != 3 {
		t.Fatal("WDL workflow did not run")
	}
}

func TestWorkflowFromWDLMissingFunction(t *testing.T) {
	src := "name: x\nsteps:\n  - name: a\n    function: ghost\n"
	_, err := WorkflowFromWDL(src, map[string]FunctionSpec{})
	if err == nil {
		t.Fatal("missing function spec accepted")
	}
}

func TestWorkflowFromJSON(t *testing.T) {
	src := []byte(`{"name":"j","steps":[{"name":"a","function":"f","output":10}]}`)
	wf, err := WorkflowFromJSON(src, map[string]FunctionSpec{"f": {ExecSeconds: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	if wf.Tasks() != 1 {
		t.Fatal("JSON workflow wrong shape")
	}
}

func TestRefresh(t *testing.T) {
	wf := Benchmark("Gen")
	c := NewCluster(WithFaaStore(true))
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, app, RunSpec{N: 3, Warmup: 1})
	if err := app.Refresh(); err != nil {
		t.Fatal(err)
	}
	if stats := mustRun(t, app, RunSpec{N: 2, Warmup: 1}); stats.Count != 2 {
		t.Fatal("post-refresh run failed")
	}
}

func TestBandwidthOptionMatters(t *testing.T) {
	run := func(bw float64) Stats {
		c := NewCluster(WithFaaStore(false), WithStorageBandwidthMBps(bw))
		app, err := c.Deploy(Benchmark("Vid"), DeployOptions{Mode: MasterSP})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, app, RunSpec{N: 5, Warmup: 1})
	}
	slow, fast := run(10), run(100)
	if slow.Mean <= fast.Mean {
		t.Fatalf("10MB/s mean %v not above 100MB/s mean %v", slow.Mean, fast.Mean)
	}
}

func TestSwitchRunWithArgs(t *testing.T) {
	src := `
name: quality
steps:
  - name: probe
    function: probe
    output: 1048576
  - name: pick
    type: switch
    choices:
      - condition: "$q > 720"
        steps:
          - name: hd
            function: hd
      - condition: "$q <= 720"
        steps:
          - name: sd
            function: sd
  - name: publish
    function: publish
`
	fns := map[string]FunctionSpec{
		"probe":   {ExecSeconds: 0.05},
		"hd":      {ExecSeconds: 1.0},
		"sd":      {ExecSeconds: 0.1},
		"publish": {ExecSeconds: 0.05},
	}
	wf, err := WorkflowFromWDL(src, fns)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(WithWorkers(2))
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	hdStats := mustRun(t, app, RunSpec{N: 5, Invoke: InvokeOptions{Args: map[string]any{"q": 1080.0}}})
	sdStats := mustRun(t, app, RunSpec{N: 5, Invoke: InvokeOptions{Args: map[string]any{"q": 480.0}}})
	if hdStats.Count != 5 || sdStats.Count != 5 {
		t.Fatalf("counts = %d/%d", hdStats.Count, sdStats.Count)
	}
	// The HD branch costs 1.0s of exec; SD only 0.1s. The chosen branch
	// must dominate the latency difference.
	if hdStats.Mean <= sdStats.Mean {
		t.Fatalf("hd mean %v <= sd mean %v; switch not routing", hdStats.Mean, sdStats.Mean)
	}
	if diff := hdStats.Mean - sdStats.Mean; diff < 500*time.Millisecond {
		t.Fatalf("branch latency difference %v too small", diff)
	}
}

func TestModeString(t *testing.T) {
	if WorkerSP.String() != "WorkerSP" || MasterSP.String() != "MasterSP" {
		t.Fatal("mode strings wrong")
	}
}

func TestUtilizationSnapshot(t *testing.T) {
	c := NewCluster(WithFaaStore(true))
	app, err := c.Deploy(Benchmark("Vid"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, app, RunSpec{N: 5, Warmup: 1})
	u := c.Utilization()
	if u.ColdStarts == 0 || u.WarmReuses == 0 {
		t.Fatalf("container counters empty: %+v", u)
	}
	if u.CPUBusy <= 0 {
		t.Fatal("no CPU busy time recorded")
	}
	if u.StoreLocalHits == 0 {
		t.Fatal("FaaStore saw no local hits for a fully-local workflow")
	}
}

func TestObserverReportAndTrace(t *testing.T) {
	c := NewCluster(WithWorkers(3), WithSeed(7))
	o := NewObserver()
	c.AttachObserver(o)
	wf := Benchmark("Gen")
	if wf == nil {
		t.Fatal("Gen benchmark missing")
	}
	app, err := c.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, app, RunSpec{N: 3, Warmup: 1})
	if o.Events() == 0 {
		t.Fatal("attached observer saw nothing")
	}

	bds := o.Breakdowns()
	// Run(3) does one warm-up pass plus 3 measured invocations.
	if len(bds) != 4 {
		t.Fatalf("breakdowns = %d; want 4", len(bds))
	}
	for _, bd := range bds {
		var sum time.Duration
		for _, d := range bd.Components {
			sum += d
		}
		if sum != bd.Total {
			t.Fatalf("component sum %v != total %v", sum, bd.Total)
		}
		if bd.Mode != "WorkerSP" || bd.Workflow != wf.Name() {
			t.Fatalf("breakdown identity = %q/%q", bd.Workflow, bd.Mode)
		}
	}

	rep := o.Report()
	if rep.Count != 4 || rep.MeanTotal <= 0 || rep.Mean["exec"] <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	text := o.ReportText()
	if !strings.Contains(text, "exec") {
		t.Fatalf("report text missing exec:\n%s", text)
	}

	if !strings.Contains(o.PrometheusText(), "faasflow_invocations_total") {
		t.Fatal("exposition missing invocation counter")
	}
	data, err := o.WorkflowTrace(wf.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ph": "X"`) {
		t.Fatal("workflow trace has no spans")
	}
	if _, err := o.WorkflowTrace("nope"); err == nil {
		t.Fatal("want error for unobserved workflow")
	}

	// After detach nothing new is recorded.
	c.DetachObserver()
	before := o.Events()
	mustRun(t, app, RunSpec{N: 1, Warmup: 1})
	if o.Events() != before {
		t.Fatalf("detached observer grew: %d -> %d", before, o.Events())
	}
}

// mustRun runs one batch and fails the test on a run error.
func mustRun(t testing.TB, a *App, spec RunSpec) Stats {
	t.Helper()
	st, err := a.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
