package harness

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

// TestDurableGatesPass runs both durability scenarios in both modes and
// enforces the acceptance gates: zero lost invocations everywhere; after
// an engine kill, replay skips committed steps and re-executes none; after
// a node kill with ReplicationFactor 2, consumers read surviving replicas
// instead of re-executing producers.
func TestDurableGatesPass(t *testing.T) {
	rows, err := Durable(DurableSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2 modes × 2 scenarios", len(rows))
	}
	if err := CheckDurable(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scenario == ScenarioEngineKill && r.Durable.Redispatched == 0 {
			t.Errorf("%s/%s: restart re-dispatched nothing", r.Mode, r.Scenario)
		}
		if r.Scenario == ScenarioNodeKill && r.Repl.ReReplications == 0 {
			t.Errorf("%s/%s: no background re-replication after the kill", r.Mode, r.Scenario)
		}
	}
}

// TestDurableDeterministic runs the same durable spec twice and requires
// byte-identical snapshots — crash, replay, replica reads, and repair are
// all on the simulation clock. This is the property the CI scenario-smoke
// job diffs across two process invocations.
func TestDurableDeterministic(t *testing.T) {
	spec := DurableSpec{Invocations: 10}
	a, err := Durable(spec, []engine.Mode{engine.ModeWorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Durable(spec, []engine.Mode{engine.ModeWorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		da, err := a[i].Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		db, err := b[i].Snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s/%s: same-seed durable runs produced different snapshots (%d vs %d bytes)",
				a[i].Scenario, a[i].Mode, len(da), len(db))
		}
	}
}

// TestDurableRenderAndCheckErrors exercises the table renderer and the
// gate messages on a hand-built failing row.
func TestDurableRenderAndCheckErrors(t *testing.T) {
	bad := []DurableRow{{Mode: engine.ModeWorkerSP, Scenario: ScenarioEngineKill, Invocations: 5, Lost: 1}}
	if err := CheckDurable(bad); err == nil {
		t.Fatal("CheckDurable accepted a lost invocation")
	}
	bad[0].Lost = 0
	if err := CheckDurable(bad); err == nil {
		t.Fatal("CheckDurable accepted an engine-kill row with no crash")
	}
	if tbl := RenderDurable(bad); tbl == nil {
		t.Fatal("RenderDurable returned nil")
	}
}
