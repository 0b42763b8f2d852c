package faasflow

import "testing"

// The what-if API replays the app's own deployment configuration on a
// fresh testbed, so a nil-perturbation run must reproduce the app's
// scenario and a scoped speedup must measurably help.
func TestAppWhatIf(t *testing.T) {
	cluster := NewCluster()
	app, err := cluster.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	base, err := app.WhatIf(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Count != 5 || base.MeanNs <= 0 {
		t.Fatalf("baseline = %+v", base)
	}
	fast, err := app.WhatIf(&Perturbation{Dim: DimExec, Factor: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanNs >= base.MeanNs {
		t.Fatalf("halving exec did not help: %d -> %d", base.MeanNs, fast.MeanNs)
	}
	// The counterfactual runs must not disturb the live deployment.
	if stats := mustRun(t, app, RunSpec{N: 3, Warmup: 1}); stats.Count != 3 {
		t.Fatalf("app unusable after what-if: %+v", stats)
	}
}

func TestAppExplainRanksDimensions(t *testing.T) {
	cluster := NewCluster()
	app, err := cluster.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := app.Explain(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Ranked) != 5 {
		t.Fatalf("ranked %d dimensions, want 5", len(ex.Ranked))
	}
	for i := 1; i < len(ex.Ranked); i++ {
		if ex.Ranked[i].GainNs > ex.Ranked[i-1].GainNs {
			t.Fatalf("ranking not descending: %+v", ex.Ranked)
		}
	}
	if ex.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestAppCausalProfileDeterministic(t *testing.T) {
	cluster := NewCluster()
	app, err := cluster.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := app.CausalProfile(3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := app.CausalProfile(3)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := p1.Marshal()
	b2, _ := p2.Marshal()
	if string(b1) != string(b2) {
		t.Fatal("same-app causal profiles are not byte-identical")
	}
}
