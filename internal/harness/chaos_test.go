package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestChaosZeroLostInvocations kills the busiest worker mid-run in both
// modes and requires every invocation to complete anyway — the recovery
// layer's core guarantee. The dead worker's tasks must actually have been
// re-placed and re-issued, not just lucky.
func TestChaosZeroLostInvocations(t *testing.T) {
	rows, err := Chaos(ChaosSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 modes", len(rows))
	}
	for _, r := range rows {
		if r.Lost != 0 {
			t.Errorf("%s: lost %d of %d invocations", r.Mode, r.Lost, r.Invocations)
		}
		if r.FailedInv != 0 {
			t.Errorf("%s: %d invocations exhausted their recovery budget", r.Mode, r.FailedInv)
		}
		if r.Stats.Replacements == 0 {
			t.Errorf("%s: node death re-placed no tasks", r.Mode)
		}
		if r.Stats.Reissues == 0 {
			t.Errorf("%s: node death re-issued no executors", r.Mode)
		}
	}
	if rows[0].Mode != engine.ModeWorkerSP || rows[1].Mode != engine.ModeMasterSP {
		t.Fatalf("mode order %v, %v", rows[0].Mode, rows[1].Mode)
	}
}

// TestChaosDeterministic runs the same chaos spec twice and requires
// byte-identical snapshots — faults, recovery, and re-placement are all on
// the simulation clock, so nothing about a chaos run may depend on host
// state. This is the property the CI scenario-smoke job diffs.
func TestChaosDeterministic(t *testing.T) {
	spec := ChaosSpec{Invocations: 12}
	a, err := Chaos(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(spec, nil)
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
			t.Errorf("%s: same-seed chaos runs produced different snapshots (%d vs %d bytes)",
				a[i].Mode, len(da), len(db))
		}
	}
}

// TestChaosRecoveryEventsInTrace verifies the fault and recovery path is
// observable end to end: the snapshot must carry the node fault window and
// the per-executor recovery events with their re-placement targets.
func TestChaosRecoveryEventsInTrace(t *testing.T) {
	rows, err := Chaos(ChaosSpec{}, []engine.Mode{engine.ModeWorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	nodeFaults, recoveries, replacedTo := 0, 0, 0
	for _, ev := range r.Snapshot.Events {
		switch e := ev.Ev.(type) {
		case obs.NodeFaultEvent:
			nodeFaults++
			if e.Node != r.Victim {
				t.Errorf("node-fault targets %q, victim was %q", e.Node, r.Victim)
			}
		case obs.RecoveryEvent:
			recoveries++
			if e.NewWorker != e.OldWorker {
				replacedTo++
			}
			if e.NewWorker == r.Victim && e.Reason == "node-down" {
				t.Errorf("node-down recovery re-issued onto the dead victim %q", r.Victim)
			}
		}
	}
	if nodeFaults != 2 {
		t.Errorf("snapshot has %d node-fault events, want 2 (down + recover)", nodeFaults)
	}
	if recoveries == 0 {
		t.Error("snapshot has no recovery events")
	}
	if replacedTo == 0 {
		t.Error("no recovery event shows a re-placed worker")
	}
}

// TestChaosWithEngineKill layers an engine crash on top of the node kill:
// the journal-backed deployment must replay committed steps after restart
// and still lose nothing.
func TestChaosWithEngineKill(t *testing.T) {
	rows, err := Chaos(ChaosSpec{EngineKillAt: 3 * time.Second},
		[]engine.Mode{engine.ModeWorkerSP})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Lost != 0 {
		t.Fatalf("lost %d of %d invocations", r.Lost, r.Invocations)
	}
	if r.Durable.EngineCrashes != 1 {
		t.Fatalf("engine crashes = %d, want 1", r.Durable.EngineCrashes)
	}
	if r.Durable.ReplaySkips == 0 {
		t.Fatal("restart replayed no committed steps")
	}
}
