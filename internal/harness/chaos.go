package harness

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// This file drives the chaos-availability scenario: kill a worker node
// mid-run while invocations are in flight and verify that the engine's
// recovery layer (task timeouts, re-placement, mode-specific re-issue)
// completes every invocation anyway. The run is fully deterministic —
// seeded arrivals, a scheduled fault window — so two runs with the same
// spec produce byte-identical snapshots, which is what CI diffs.

// ChaosSpec configures one chaos-availability run.
type ChaosSpec struct {
	Invocations int // invocations per mode (default 20)

	// EngineKillAt, when > 0, additionally crashes the workflow engine at
	// that offset: a journal is attached to the deployment and the engine
	// recovers by replay after chaosDownFor.
	EngineKillAt time.Duration
}

// Chaos scenario constants, sized so the fault window overlaps in-flight
// work.
const (
	chaosBench       = "IR"
	chaosInvocations = 20
	chaosInterval    = 400 * time.Millisecond // open-loop arrival spacing
	chaosDownFor     = 5 * time.Second        // victim (and engine) outage window
)

// ChaosRow is one mode's chaos-availability measurement.
type ChaosRow struct {
	Mode        engine.Mode
	Victim      string        // worker killed mid-run
	KillAt      time.Duration // fault instant
	DownFor     time.Duration
	Invocations int
	Completed   int // invocations that finished (Failed or not)
	FailedInv   int // completed with the Failed flag (budget exhausted)
	Lost        int // invocations that never completed — must be zero
	Stats       engine.FailureStats
	// Durable carries journal/replay counters when EngineKillAt armed an
	// engine crash (zero-valued otherwise).
	Durable engine.DurableStats
	Mean    time.Duration
	P99     time.Duration
	// Snapshot is the run's full flight-recorder snapshot; identical specs
	// yield byte-identical snapshots.
	Snapshot *obs.Snapshot
}

// Chaos runs the chaos-availability scenario once per mode: deploy the
// benchmark with recovery enabled, start staggered invocations, kill the
// worker hosting the most placed tasks halfway through the arrival window,
// recover it after chaosDownFor, and run the simulation dry.
func Chaos(spec ChaosSpec, modes []engine.Mode) ([]ChaosRow, error) {
	spec.Invocations = orDefault(spec.Invocations, chaosInvocations)
	return sweep(modes, []ChaosSpec{spec}, chaosOne)
}

func chaosOne(mode engine.Mode, spec ChaosSpec) (ChaosRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	bus, log := observe(tb)
	var jr *journal.WAL
	if spec.EngineKillAt > 0 {
		jr = journal.New(tb.Env, journal.Config{})
	}
	d, err := tb.Deploy(workloads.ByName(chaosBench), recoveryOptions(mode, jr))
	if err != nil {
		return ChaosRow{}, fmt.Errorf("harness: chaos deploy %s/%s: %w", chaosBench, mode, err)
	}

	victim := chaosVictim(d.Placement.Worker, tb.Workers)
	killAt := chaosInterval * time.Duration(spec.Invocations) / 2
	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	schedule := faults.Schedule{{
		Kind:     faults.NodeDown,
		Node:     victim,
		At:       killAt,
		Duration: chaosDownFor,
	}}
	if spec.EngineKillAt > 0 {
		inj.AttachEngines(d.Engine)
		schedule = append(schedule, faults.Fault{
			Kind: faults.EngineDown, At: spec.EngineKillAt, Duration: chaosDownFor,
		})
	}
	if err := inj.Install(schedule); err != nil {
		return ChaosRow{}, err
	}

	completed, failed, rec := staggeredRun(tb, d.Engine, spec.Invocations, chaosInterval)
	return ChaosRow{
		Mode:        mode,
		Victim:      victim,
		KillAt:      killAt,
		DownFor:     chaosDownFor,
		Invocations: spec.Invocations,
		Completed:   completed,
		FailedInv:   failed,
		Lost:        spec.Invocations - completed,
		Stats:       d.Engine.FailureStatsSnapshot(),
		Durable:     d.Engine.DurableStatsSnapshot(),
		Mean:        rec.Mean(),
		P99:         rec.P99(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "chaos",
			"bench":    chaosBench,
			"mode":     mode.String(),
		}),
	}, nil
}

func (r ChaosRow) snapshot() NamedSnapshot {
	return NamedSnapshot{"chaos-" + r.Mode.String() + ".json", r.Snapshot}
}

// CheckChaos is the availability gate: no mode may lose an invocation.
func CheckChaos(rows []ChaosRow) error {
	for _, r := range rows {
		if r.Lost > 0 {
			return fmt.Errorf("chaos %s: lost %d of %d invocations", r.Mode, r.Lost, r.Invocations)
		}
	}
	return nil
}

// chaosVictim picks the worker hosting the most placed tasks — the node
// whose death strands the most work. Ties break on the testbed's worker
// order, keeping the choice deterministic.
func chaosVictim(place map[dag.NodeID]string, workers []string) string {
	counts := map[string]int{}
	for _, w := range place {
		counts[w]++
	}
	best, bestCount := "", -1
	for _, w := range workers {
		if counts[w] > bestCount {
			best, bestCount = w, counts[w]
		}
	}
	return best
}

// RenderChaos builds the chaos-availability table.
func RenderChaos(rows []ChaosRow) *metrics.Table {
	t := metrics.NewTable("mode", "victim", "kill at", "down for", "done", "lost",
		"failed", "reissues", "replaced", "timeouts", "mean", "p99")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), r.Victim,
			metrics.Seconds(r.KillAt), metrics.Seconds(r.DownFor),
			fmt.Sprintf("%d/%d", r.Completed, r.Invocations),
			fmt.Sprintf("%d", r.Lost), fmt.Sprintf("%d", r.FailedInv),
			fmt.Sprintf("%d", r.Stats.Reissues), fmt.Sprintf("%d", r.Stats.Replacements),
			fmt.Sprintf("%d", r.Stats.Timeouts),
			metrics.Millis(r.Mean), metrics.Millis(r.P99))
	}
	return t
}
