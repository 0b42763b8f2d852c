package faasflow

import (
	"testing"
	"time"
)

func fastFederation() *FederationOptions {
	return &FederationOptions{
		Members:      2,
		Shards:       8,
		LeaseTTL:     500 * time.Millisecond,
		RenewEvery:   125 * time.Millisecond,
		CheckEvery:   125 * time.Millisecond,
		HandoffDelay: 100 * time.Millisecond,
		Seed:         9,
	}
}

// TestDeployFederatedRoutesAndCompletes is the public happy path: a
// federated deploy routes closed-loop invocations across member engines by
// shard and completes them all.
func TestDeployFederatedRoutesAndCompletes(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP, Federation: fastFederation()})
	if err != nil {
		t.Fatal(err)
	}
	if !app.Federated() {
		t.Fatal("federated deploy reports Federated() == false")
	}
	if !app.Durable() {
		t.Fatal("federation members must be durable")
	}
	if got := app.FederationMembers(); len(got) != 2 || got[0] != "engine-0" {
		t.Fatalf("members = %v", got)
	}
	const n = 8
	stats, err := app.Run(RunSpec{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Count != n {
		t.Fatalf("completed %d of %d", stats.Count, n)
	}
	fs := app.FederationStats()
	if fs.Invocations != n || fs.Completed != n || fs.Failed != 0 {
		t.Fatalf("federation stats = %+v", fs)
	}
	if fs.Renewals == 0 {
		t.Fatal("no lease renewals during the run")
	}
	if fs.DupDones != 0 {
		t.Fatalf("%d invocations finished twice", fs.DupDones)
	}
	// Both members committed journal records: the router spread shards.
	active := 0
	for _, m := range fs.Members {
		if m.Committed > 0 {
			active++
		}
	}
	if active != 2 {
		t.Fatalf("only %d of 2 members committed work", active)
	}
}

// TestKillMemberFailsOverPublic kills a member mid-batch through the
// public surface: a survivor claims its shards, adopts its invocations via
// journal handoff, and the batch still completes exactly.
func TestKillMemberFailsOverPublic(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP, Federation: fastFederation()})
	if err != nil {
		t.Fatal(err)
	}
	// Kill engine-0 once the batch is in flight; App.Run's stepped
	// clock drives lease expiry, the claim, and the handoff replay.
	killed := false
	c.tb.Env.Schedule(2*time.Second, func() {
		if err := app.KillFederationMember("engine-0"); err != nil {
			t.Errorf("kill: %v", err)
		}
		killed = true
	})
	const n = 10
	stats, err := app.Run(RunSpec{N: n})
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill never fired")
	}
	if stats.Count != n {
		t.Fatalf("completed %d of %d", stats.Count, n)
	}
	fs := app.FederationStats()
	if fs.Expiries == 0 || fs.Claims == 0 {
		t.Fatalf("no failover observed: %+v", fs)
	}
	if fs.DupDones != 0 {
		t.Fatalf("%d invocations finished twice across the handoff", fs.DupDones)
	}
	for _, m := range fs.Members {
		if m.DupDrops != 0 {
			t.Fatalf("member %s double-committed %d steps", m.ID, m.DupDrops)
		}
	}
	// The dead member owns nothing; the survivor owns every shard.
	for _, m := range fs.Members {
		if m.ID == "engine-0" && m.Shards != 0 {
			t.Fatalf("dead member still owns %d shards", m.Shards)
		}
	}
	if err := app.RestartFederationMember("engine-0"); err != nil {
		t.Fatal(err)
	}
}

// TestFederationMethodsRejectNonFederatedApps pins the error contract on
// plain deploys.
func TestFederationMethodsRejectNonFederatedApps(t *testing.T) {
	c := NewCluster()
	app, err := c.Deploy(Benchmark("IR"), DeployOptions{Mode: WorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	if app.Federated() {
		t.Fatal("plain deploy reports Federated() == true")
	}
	if err := app.KillFederationMember("engine-0"); err == nil {
		t.Error("KillFederationMember on plain app did not error")
	}
	if _, pending := app.HandoffPending(); pending {
		t.Error("plain app reports a pending handoff")
	}
	if st := app.FederationStats(); st.Invocations != 0 || len(st.Members) != 0 {
		t.Errorf("plain app federation stats = %+v", st)
	}
}
