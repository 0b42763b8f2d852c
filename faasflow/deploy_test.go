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

// TestRunMethodsRejectFederatedApps checks every run method that drives
// one engine directly fails fast on a federated app, naming RunFederated,
// rather than bypassing the shard router and never draining the clock.
func TestRunMethodsRejectFederatedApps(t *testing.T) {
	runs := map[string]func(a *App){
		"Run":                func(a *App) { a.Run(2) },
		"RunOpts":            func(a *App) { a.RunOpts(InvokeOptions{}, 2) },
		"RunOpenLoop":        func(a *App) { a.RunOpenLoop(60, 2) },
		"RunOpenLoopPoisson": func(a *App) { a.RunOpenLoopPoisson(60, 2, 1) },
		"RunAdmitted":        func(a *App) { a.RunAdmitted(60, 2, 0) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			app, err := NewCluster().Deploy(Benchmark("IR"), DeployOptions{Federation: &FederationOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				run(app)
			}()
			select {
			case r := <-done:
				msg, _ := r.(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "RunFederated") {
					t.Fatalf("panic = %v, want a message naming %s and RunFederated", r, name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s on a federated app did not return within 5s", name)
			}
		})
	}
	app, err := NewCluster().Deploy(Benchmark("IR"), DeployOptions{Federation: &FederationOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrently([]*App{app}, 2); err == nil || !strings.Contains(err.Error(), "RunFederated") {
		t.Fatalf("RunConcurrently err = %v, want one naming RunFederated", err)
	}
}

// TestRunRejectsClusterHostingFederation checks a plain app sharing its
// cluster with a federated one fails fast instead of waiting forever for
// the federation's lease timers to drain.
func TestRunRejectsClusterHostingFederation(t *testing.T) {
	c := NewCluster()
	plain, err := c.Deploy(Benchmark("IR"), DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.Run(1); st.Count != 1 {
		t.Fatalf("run before the federation completed %d/1", st.Count)
	}
	if _, err := c.Deploy(Benchmark("IR"), DeployOptions{Federation: &FederationOptions{}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		plain.Run(1)
	}()
	select {
	case r := <-done:
		if msg, _ := r.(string); !strings.Contains(msg, "hosts a federated app") {
			t.Fatalf("panic = %v, want a message naming the federated cluster", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run on a cluster hosting a federation did not return within 5s")
	}
}
