package main

import (
	"testing"

	"repro/internal/harness"
)

// TestEveryScenarioResolvesThroughRun checks that -run NAME selects
// exactly the named harness scenario, that experiment names are unique,
// and that -run all selects everything.
func TestEveryScenarioResolvesThroughRun(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range experiments {
		if seen[exp.name] {
			t.Errorf("duplicate experiment name %q", exp.name)
		}
		seen[exp.name] = true
	}
	for _, sc := range harness.Scenarios {
		got := selectExperiments(sc.Name)
		if len(got) != 1 || got[0].name != sc.Name || got[0].title != sc.Title {
			t.Errorf("-run %s selected %d experiments", sc.Name, len(got))
		}
	}
	if got := selectExperiments("all"); len(got) != len(experiments) {
		t.Errorf("-run all selected %d of %d experiments", len(got), len(experiments))
	}
	if got := selectExperiments("chaos, fig4"); len(got) != 2 || got[0].name != "fig4" {
		t.Errorf("-run \"chaos, fig4\" selected %d experiments", len(got))
	}
}
