package harness

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// RunSnapshot assembles one testbed for the system, runs the named
// benchmarks closed-loop on it sequentially — one shared timeline, so the
// flight recorder sees all substrate activity coherently — and folds the
// full event log into a snapshot. The simulation is deterministic:
// identical inputs yield byte-identical snapshots, which is what the CI
// regression gate diffs.
func RunSnapshot(sys System, benchNames []string, invocations int, storageBW network.Bandwidth, meta map[string]string) (*obs.Snapshot, error) {
	if invocations <= 0 {
		invocations = 1
	}
	tb := newSystemTestbed(sys, storageBW)
	_, log := observe(tb)

	for _, name := range benchNames {
		bench := workloads.ByName(name)
		if bench == nil {
			return nil, fmt.Errorf("harness: unknown benchmark %q", name)
		}
		d, err := tb.deploySystem(sys, bench, engine.DataStore)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", name, sys, err)
		}
		tb.Drive(Client{Target: d.Invoke, N: invocations})
	}

	if meta == nil {
		meta = map[string]string{}
	}
	if _, ok := meta["system"]; !ok {
		meta["system"] = sys.String()
	}
	return obs.BuildSnapshot(log, meta), nil
}
