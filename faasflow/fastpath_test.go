package faasflow

import "testing"

func TestDeployFastBeatsBaseline(t *testing.T) {
	wf := Benchmark("Vid")
	base := NewCluster(WithSeed(1))
	appBase, err := base.Deploy(wf, DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	fast := NewCluster(WithSeed(1))
	appFast, err := fast.Deploy(wf, DeployOptions{Mode: WorkerSP, FastPath: FastPath{DirectPassing: true, Prewarm: true}})
	if err != nil {
		t.Fatal(err)
	}
	sb := mustRun(t, appBase, RunSpec{N: 10, Warmup: 1})
	sf := mustRun(t, appFast, RunSpec{N: 10, Warmup: 1})
	if sf.Mean > sb.Mean {
		t.Fatalf("fast path regressed: mean %v > baseline %v", sf.Mean, sb.Mean)
	}
	st := appFast.FastPathStats()
	if st.DirectPushes == 0 {
		t.Fatalf("no direct pushes: %+v", st)
	}
	if st.PrewarmIssued == 0 {
		t.Fatalf("no prewarm slots issued: %+v", st)
	}
	if ds := fast.DirectPassingStats(); ds.Pushes == 0 || ds.BytesPushed == 0 {
		t.Fatalf("store-level direct stats empty: %+v", ds)
	}
	if !appFast.FastPath().Enabled() {
		t.Fatal("FastPath() lost the deploy options")
	}
	if appBase.FastPath().Enabled() {
		t.Fatal("plain deploy reports fast path enabled")
	}
}

func TestDeployDurableWithMemoization(t *testing.T) {
	c := NewCluster(WithSeed(2))
	app, err := c.Deploy(Benchmark("Vid"), DeployOptions{
		Mode:       WorkerSP,
		FastPath:   FastPath{Memoize: true},
		Durability: &Durability{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := mustRun(t, app, RunSpec{N: 4, Warmup: 1}); st.Count != 4 {
		t.Fatalf("completed %d/4", st.Count)
	}
	st := app.FastPathStats()
	if st.MemoHits == 0 {
		t.Fatalf("no memo hits across repeated invocations: %+v", st)
	}
	// Memo hits must still commit journal records: replay depends on them.
	ds := app.DurableStats()
	if ds.Journal.Committed == 0 {
		t.Fatal("durable fast-path app committed nothing")
	}
	if ds.Journal.DupDrops != 0 {
		t.Fatalf("journal dropped %d duplicate commits", ds.Journal.DupDrops)
	}
}
