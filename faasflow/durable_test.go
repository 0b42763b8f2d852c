package faasflow

import (
	"testing"
	"time"
)

// TestDeployDurableJournalsSteps is the public durable path: every step of
// every invocation commits one journal record, readable back in order.
func TestDeployDurableJournalsSteps(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP, Durability: &Durability{}})
	if err != nil {
		t.Fatal(err)
	}
	if !app.Durable() {
		t.Fatal("durable deploy reports Durable() == false")
	}
	const n = 3
	stats := mustRun(t, app, RunSpec{N: n, Warmup: 1})
	if stats.Count != n {
		t.Fatalf("completed %d of %d", stats.Count, n)
	}
	ds := app.DurableStats()
	// Run issues a warm-up invocation before the measured n.
	tasks := int64(Benchmark("IR").Tasks())
	if want := tasks * (n + 1); ds.Journal.Committed != want {
		t.Fatalf("journal committed %d records, want %d", ds.Journal.Committed, want)
	}
	if ds.Journal.DupDrops != 0 {
		t.Fatalf("healthy run dup-dropped %d commits", ds.Journal.DupDrops)
	}
	entries := app.JournalEntries()
	if int64(len(entries)) != ds.Journal.Committed {
		t.Fatalf("%d entries vs %d committed", len(entries), ds.Journal.Committed)
	}
	if entries[0].Workflow != "IR" || len(entries[0].Outputs) == 0 {
		t.Fatalf("first entry %+v lacks workflow/outputs", entries[0])
	}
}

// TestEngineDownFaultPublic injects the public EngineDown fault against a
// durable app mid-run: the engine must crash, replay committed steps on
// restart, and lose nothing.
func TestEngineDownFaultPublic(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP, Durability: &Durability{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFaults(FaultSchedule{{
		Kind: EngineDown, At: 2 * time.Second, Duration: 3 * time.Second,
	}}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	stats := mustRun(t, app, RunSpec{N: n, Warmup: 1})
	if stats.Count != n {
		t.Fatalf("completed %d of %d invocations", stats.Count, n)
	}
	ds := app.DurableStats()
	if ds.EngineCrashes != 1 {
		t.Fatalf("engine crashes = %d, want 1", ds.EngineCrashes)
	}
	if ds.ReplaySkips == 0 {
		t.Error("restart replayed no committed steps")
	}
	if ds.Journal.DupDrops != 0 {
		t.Errorf("%d committed steps re-executed after restart", ds.Journal.DupDrops)
	}
}

// TestEngineDownWithoutDurableAppRejected: EngineDown needs at least one
// deployed engine to target.
func TestEngineDownWithoutDurableAppRejected(t *testing.T) {
	c := NewCluster()
	if err := c.InjectFaults(FaultSchedule{{Kind: EngineDown, At: time.Second}}); err == nil {
		t.Error("EngineDown accepted with no engines deployed")
	}
}

// TestReplicatedDeploySurvivesNodeDeath: with ReplicationFactor 2, killing
// a worker that holds outputs must be absorbed by replica reads — zero
// producer re-executions and zero lost inputs.
func TestReplicatedDeploySurvivesNodeDeath(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{
		Mode:       WorkerSP,
		Recovery:   &Recovery{TaskTimeout: 20 * time.Second},
		Durability: &Durability{ReplicationFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	ds := app.DurableStats()
	if ds.LostInputs != 0 || ds.Reexecs != 0 {
		t.Fatalf("replicated run re-executed producers: %d lost inputs, %d reexecs",
			ds.LostInputs, ds.Reexecs)
	}
	rs := c.ReplicationStats()
	if rs.ReplicaWrites == 0 {
		t.Error("replication factor 2 produced no replica writes")
	}
}
