package faasflow

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestDeployOptionsMapToEngineOptions pins the engine options each
// DeployOptions shape builds, defaults included: recovery 30 s / 200 ms /
// 5 s whenever a journal is present, one fresh journal per engine, and a
// three-member federation by default.
func TestDeployOptionsMapToEngineOptions(t *testing.T) {
	fp := FastPath{DirectPassing: true, Memoize: true, MemoLookup: time.Millisecond}
	rec := Recovery{TaskTimeout: 7 * time.Second, MaxReissues: 3}
	recovering := func(mode engine.Mode, timeout time.Duration, reissues int, fp FastPath) engine.Options {
		return engine.Options{Mode: mode, Data: engine.DataStore, TaskTimeout: timeout,
			BackoffBase: 200 * time.Millisecond, BackoffMax: 5 * time.Second,
			MaxReissues: reissues, FastPath: fp}
	}
	cases := []struct {
		name    string
		o       DeployOptions
		want    engine.Options
		journal bool
		members int
	}{
		{"plain", DeployOptions{Mode: MasterSP},
			engine.Options{Mode: engine.ModeMasterSP, Data: engine.DataStore}, false, 0},
		{"fastPath", DeployOptions{FastPath: fp},
			engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore, FastPath: fp}, false, 0},
		{"recovery defaults", DeployOptions{Mode: MasterSP, Recovery: &Recovery{}},
			recovering(engine.ModeMasterSP, 30*time.Second, 0, FastPath{}), false, 0},
		{"recovery", DeployOptions{Recovery: &rec},
			recovering(engine.ModeWorkerSP, 7*time.Second, 3, FastPath{}), false, 0},
		{"durable defaults", DeployOptions{Durability: &Durability{}},
			recovering(engine.ModeWorkerSP, 30*time.Second, 0, FastPath{}), true, 0},
		{"durable", DeployOptions{Mode: MasterSP, FastPath: fp, Recovery: &rec,
			Durability: &Durability{ReplicationFactor: 2}},
			recovering(engine.ModeMasterSP, 7*time.Second, 3, fp), true, 0},
		{"federated defaults", DeployOptions{Federation: &FederationOptions{}},
			recovering(engine.ModeWorkerSP, 30*time.Second, 0, FastPath{}), true, 3},
		{"federated", DeployOptions{FastPath: fp, Recovery: &rec,
			Federation: &FederationOptions{Members: 2}},
			recovering(engine.ModeWorkerSP, 7*time.Second, 3, fp), true, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app, err := NewCluster().Deploy(Benchmark("IR"), tc.o)
			if err != nil {
				t.Fatal(err)
			}
			got := app.opts
			if (got.Journal != nil) != tc.journal {
				t.Errorf("journal present = %v, want %v", got.Journal != nil, tc.journal)
			}
			got.Journal = nil
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", tc.want) {
				t.Errorf("engine options =\n  %+v\nwant\n  %+v", got, tc.want)
			}
			if n := len(app.FederationMembers()); n != tc.members {
				t.Fatalf("federation members = %d, want %d", n, tc.members)
			}
			seen := map[any]bool{}
			for _, id := range app.FederationMembers() {
				jr := app.fed.Engine(id).Journal()
				if jr == nil || seen[jr] {
					t.Fatalf("member %s journal = %p, want a fresh journal per member", id, jr)
				}
				seen[jr] = true
			}
		})
	}
}

// TestDeployRejectsNegativeMembers checks a negative member count fails
// before the deploy touches the cluster.
func TestDeployRejectsNegativeMembers(t *testing.T) {
	c := NewCluster()
	_, err := c.Deploy(Benchmark("IR"), DeployOptions{
		Durability: &Durability{ReplicationFactor: 2},
		Federation: &FederationOptions{Members: -1},
	})
	if err == nil || !strings.Contains(err.Error(), "members > 0") {
		t.Fatalf("err = %v, want a members > 0 error", err)
	}
	if n, f := len(c.tb.Engines()), c.tb.Runtime.Store.ReplicationFactor(); n != 0 || f != 1 {
		t.Fatalf("failed deploy left %d engines and replication factor %d on the cluster", n, f)
	}
}

// returnsWithin runs fn and fails the test if it has not returned within
// five seconds: a run that waits for a clock that never drains hangs.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// TestRunMethodsRejectFederatedApps once pinned that each single-engine
// run method refused a federated app. App.Run routes every traffic shape
// through the shard router instead: each subtest is the RunSpec that
// replaced one of those methods, and each must complete on a federated
// app with nothing lost.
func TestRunMethodsRejectFederatedApps(t *testing.T) {
	specs := map[string]RunSpec{
		"Run":                {N: 2, Warmup: 1},
		"RunOpts":            {N: 2, Invoke: InvokeOptions{Tenant: "gold", Deadline: time.Minute}},
		"RunOpenLoop":        {N: 2, PerMinute: 60, Warmup: 1},
		"RunOpenLoopPoisson": {N: 2, PerMinute: 60, Poisson: true, Seed: 1, Warmup: 1},
		"RunAdmitted":        {N: 2, PerMinute: 60, Admit: true},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			app, err := NewCluster().Deploy(Benchmark("IR"), DeployOptions{Federation: &FederationOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			returnsWithin(t, name+" on a federated app", func() { st, err = app.Run(spec) })
			if err != nil {
				t.Fatal(err)
			}
			if st.Count != 2 {
				t.Fatalf("completed %d/2", st.Count)
			}
			warm := int64(spec.Warmup)
			if fs := app.FederationStats(); fs.Invocations != 2+warm || fs.Completed != 2+warm {
				t.Fatalf("router saw %d invocations, %d completed; want %d routed", fs.Invocations, fs.Completed, 2+warm)
			}
		})
	}
}

// TestRunRejectsClusterHostingFederation once pinned that a plain app
// sharing its cluster with a federation refused to run. Now the run steps
// the clock until its own batch completes: it returns with nothing lost,
// every admission slot released, and the federation still serving.
func TestRunRejectsClusterHostingFederation(t *testing.T) {
	c := NewCluster()
	if err := c.SetAdmission(AdmissionConfig{MaxConcurrent: 8}); err != nil {
		t.Fatal(err)
	}
	plain, err := c.Deploy(Benchmark("IR"), DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := c.Deploy(Benchmark("IR"), DeployOptions{Federation: &FederationOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []RunSpec{{N: 3, Warmup: 1}, {N: 4, PerMinute: 120, Admit: true}} {
		var st Stats
		returnsWithin(t, "a plain run on a cluster hosting a federation", func() { st, err = plain.Run(spec) })
		if err != nil {
			t.Fatal(err)
		}
		if st.Count != spec.N {
			t.Fatalf("%+v completed %d/%d", spec, st.Count, spec.N)
		}
		if live := c.AdmissionLive(); live != 0 {
			t.Fatalf("AdmissionLive = %d after the run, want 0", live)
		}
	}
	// Co-location across both: each batch finishes on the shared clock.
	var sts []Stats
	returnsWithin(t, "a co-located run", func() {
		sts, err = c.Run(Batch{plain, RunSpec{N: 2}}, Batch{fed, RunSpec{N: 2}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Count != 2 || sts[1].Count != 2 {
		t.Fatalf("co-located counts %d and %d, want 2 each", sts[0].Count, sts[1].Count)
	}
}

// TestRunRejectsInvalidSpecs checks a malformed spec or a foreign app is an
// error before anything runs, never a panic.
func TestRunRejectsInvalidSpecs(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewCluster().Deploy(Benchmark("IR"), DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"negative N":       func() error { _, err := app.Run(RunSpec{N: -1}); return err },
		"negative warm-up": func() error { _, err := app.Run(RunSpec{N: 1, Warmup: -1}); return err },
		"negative rate":    func() error { _, err := app.Run(RunSpec{N: 1, PerMinute: -6}); return err },
		"poisson, no rate": func() error { _, err := app.Run(RunSpec{N: 1, Poisson: true}); return err },
		"foreign app":      func() error { _, err := c.Run(Batch{App: other, Spec: RunSpec{N: 1}}); return err },
	} {
		if err := run(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if sts, err := c.Run(); sts != nil || err != nil {
		t.Errorf("empty Run = %v, %v; want nothing", sts, err)
	}
	if now := c.tb.Env.Now(); now != 0 {
		t.Fatalf("rejected specs moved the clock to %v", now)
	}
}
