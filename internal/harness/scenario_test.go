package harness

import (
	"testing"

	"repro/internal/engine"
)

// TestScenarioRegistry runs every registered scenario at a small n. Each
// must pass its gate, and snapshot file names must be unique across the
// whole registry, so one shared -snapshots directory never overwrites a
// file.
func TestScenarioRegistry(t *testing.T) {
	names := map[string]bool{}
	files := map[string]string{} // snapshot file -> scenario writing it
	for _, sc := range Scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		res, err := sc.Run(8, false)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if res.Gate != nil {
			t.Errorf("%s: gate failed at n=8: %v", sc.Name, res.Gate)
		}
		if res.Table == nil || len(res.Snapshots) == 0 {
			t.Errorf("%s: empty result: table %v, %d snapshots", sc.Name, res.Table != nil, len(res.Snapshots))
		}
		for _, s := range res.Snapshots {
			if prev, dup := files[s.Name]; dup {
				t.Errorf("%s and %s both write %s", prev, sc.Name, s.Name)
			}
			files[s.Name] = sc.Name
			if s.Snapshot == nil || len(s.Snapshot.Events) == 0 {
				t.Errorf("%s: snapshot %s is empty", sc.Name, s.Name)
			}
		}
	}
}

// TestScenarioRunCapsInvocations checks Run clamps n to the entry's cap
// and passes it through unchanged below the cap or without one.
func TestScenarioRunCapsInvocations(t *testing.T) {
	var got int
	sc := Scenario{Cap: 40, run: func(n int, _ bool) (ScenarioResult, error) {
		got = n
		return ScenarioResult{}, nil
	}}
	for _, c := range []struct{ cap, n, want int }{{40, 1000, 40}, {40, 20, 20}, {0, 1000, 1000}} {
		sc.Cap = c.cap
		if _, err := sc.Run(c.n, false); err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("cap %d, n %d: ran with %d, want %d", c.cap, c.n, got, c.want)
		}
	}
}

// TestScenarioOverloadNoAdmissionTripsGate is the CLI counterfactual:
// without front-door admission the overload gate must fail.
func TestScenarioOverloadNoAdmissionTripsGate(t *testing.T) {
	for _, sc := range Scenarios {
		if sc.Name != "overload" {
			continue
		}
		res, err := sc.Run(0, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gate == nil {
			t.Fatal("overload without admission passed its goodput gate")
		}
		return
	}
	t.Fatal("no overload scenario registered")
}

// TestCheckChaosRejectsLostInvocations feeds the availability gate a
// hand-built failing row.
func TestCheckChaosRejectsLostInvocations(t *testing.T) {
	rows := []ChaosRow{
		{Mode: engine.ModeWorkerSP, Invocations: 5, Completed: 5},
		{Mode: engine.ModeMasterSP, Invocations: 5, Completed: 4, Lost: 1},
	}
	if err := CheckChaos(rows); err == nil {
		t.Fatal("CheckChaos accepted a lost invocation")
	}
	if err := CheckChaos(rows[:1]); err != nil {
		t.Fatalf("CheckChaos rejected a healthy row: %v", err)
	}
	if tbl := RenderChaos(rows); tbl == nil {
		t.Fatal("RenderChaos returned nil")
	}
}
