package faasflow

import (
	"testing"
	"time"
)

// TestFaultInjectionAndRecovery is the public-API chaos path: deploy a
// benchmark with recovery enabled, kill the worker hosting its tasks while
// closed-loop invocations are in flight, and require every invocation to
// complete with re-issues recorded.
func TestFaultInjectionAndRecovery(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP, Recovery: &Recovery{
		TaskTimeout: 20 * time.Second,
		BackoffBase: 100 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Kill a worker that actually hosts tasks, mid-run.
	var victim string
	for _, w := range app.Placement() {
		victim = w
		break
	}
	if err := c.InjectFaults(FaultSchedule{{
		Kind: NodeDown, Node: victim, At: 3 * time.Second, Duration: 4 * time.Second,
	}}); err != nil {
		t.Fatal(err)
	}
	const n = 10
	stats := mustRun(t, app, RunSpec{N: n, Warmup: 1})
	if stats.Count != n {
		t.Fatalf("completed %d of %d invocations", stats.Count, n)
	}
	fs := app.FailureStats()
	if fs.FailedInvocations != 0 {
		t.Fatalf("%d invocations exhausted the recovery budget", fs.FailedInvocations)
	}
	if fs.Reissues == 0 && fs.Replacements == 0 {
		t.Error("node death produced no recovery activity")
	}
}

func TestInjectFaultsValidates(t *testing.T) {
	c := NewCluster()
	if err := c.InjectFaults(FaultSchedule{{Kind: NodeDown, Node: "no-such-node"}}); err == nil {
		t.Error("unknown fault target accepted")
	}
	if len(c.Workers()) == 0 {
		t.Fatal("cluster reports no workers")
	}
}

func TestRandomNodeKillsPublic(t *testing.T) {
	c := NewCluster()
	s := RandomNodeKills(42, c.Workers(), 2, time.Minute, time.Second, 3*time.Second)
	if len(s) != 2 {
		t.Fatalf("schedule length %d, want 2", len(s))
	}
	if err := c.InjectFaults(s); err != nil {
		t.Fatal(err)
	}
}
