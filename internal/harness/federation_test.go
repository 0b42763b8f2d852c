package harness

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

// federationWorkerSP runs both federated chaos scenarios under WorkerSP
// alone with n submissions each.
func federationWorkerSP(t *testing.T, n int) []FederationRow {
	t.Helper()
	return workerSP(t, []string{ScenarioRollingKill, ScenarioStall},
		func(mode engine.Mode, scenario string) (FederationRow, error) {
			return federationOne(n, mode, scenario)
		})
}

// TestFederationScenarioGates runs both federated chaos scenarios and
// enforces the acceptance gates: every invocation completes, zero lost,
// zero double-finishes and zero double-commits across rolling engine
// kills; the stall false positive is resolved by fencing.
func TestFederationScenarioGates(t *testing.T) {
	rows := federationWorkerSP(t, 12)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 1 mode × 2 scenarios", len(rows))
	}
	if err := CheckFederation(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scenario == ScenarioRollingKill && r.Handoffs == 0 {
			t.Errorf("%s/%s: no handoffs recorded", r.Mode, r.Scenario)
		}
	}
}

// TestFederationBothModes exercises MasterSP too (cheaper run: fewer
// invocations).
func TestFederationBothModes(t *testing.T) {
	rows, err := Federation(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2 modes × 2 scenarios", len(rows))
	}
	if err := CheckFederation(rows); err != nil {
		t.Fatal(err)
	}
}

// TestFederationDeterministic runs the same spec twice and requires
// byte-identical snapshots — lease expiries, claim-race winners, fences,
// and handoff replays are all pure functions of the seed. This is the
// property the CI scenario-smoke job diffs across two process
// invocations.
func TestFederationDeterministic(t *testing.T) {
	a, b := federationWorkerSP(t, 10), federationWorkerSP(t, 10)
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
			t.Errorf("%s/%s: same-seed federated runs produced different snapshots (%d vs %d bytes)",
				a[i].Mode, a[i].Scenario, len(da), len(db))
		}
	}
}

// TestCheckFederationCatchesViolations feeds doctored rows through the
// gate checker.
func TestCheckFederationCatchesViolations(t *testing.T) {
	rows := federationWorkerSP(t, 8)
	bad := append([]FederationRow(nil), rows...)
	bad[0].Lost = 1
	if err := CheckFederation(bad); err == nil {
		t.Error("lost invocation passed the gate")
	}
	bad = append([]FederationRow(nil), rows...)
	bad[0].Fed.DupDones = 1
	if err := CheckFederation(bad); err == nil {
		t.Error("double-finish passed the gate")
	}
	bad = append([]FederationRow(nil), rows...)
	for i := range bad {
		if bad[i].Scenario == ScenarioRollingKill {
			bad[i].MaxHandoff = bad[i].HandoffBudget * 2
		}
	}
	if err := CheckFederation(bad); err == nil {
		t.Error("blown handoff budget passed the gate")
	}
	bad = append([]FederationRow(nil), rows...)
	for i := range bad {
		if bad[i].Scenario == ScenarioStall {
			bad[i].Fed.FencedTotal = 0
		}
	}
	if err := CheckFederation(bad); err == nil {
		t.Error("unfenced stall passed the gate")
	}
}
