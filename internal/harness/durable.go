package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads"
)

// This file drives the durable-execution scenario pair:
//
//   - engine-kill: crash the workflow engine mid-run (journal tears, every
//     in-flight invocation orphans), restart it after a window, and require
//     that replay completes everything with zero lost invocations and zero
//     re-execution of committed steps (journal DupDrops == 0).
//   - node-kill: with 2-way replication, kill the busiest worker and
//     require that consumers of its committed outputs recover by *fetching*
//     a surviving replica (ReplicaReads > 0) instead of re-executing
//     producers (Reexecs == 0, LostInputs == 0).
//
// Both runs are deterministic; same-spec runs yield byte-identical
// snapshots, which CI diffs across two invocations.

// Durable scenario constants, sized so the fault window overlaps in-flight
// work. The journal keeps its default fsync latency and batch window.
const (
	durableBench       = "IR"
	durableInvocations = 20
	durableInterval    = 400 * time.Millisecond // open-loop arrival spacing
	durableReplication = 2                      // node-kill replication factor
	durableRepairDelay = 50 * time.Millisecond  // re-replication delay
	durableEngineDown  = 5 * time.Second        // engine crash window
	durableNodeDown    = 5 * time.Second        // worker kill window
)

// Durable scenario names.
const (
	ScenarioEngineKill = "engine-kill"
	ScenarioNodeKill   = "node-kill"
)

// DurableRow is one mode × scenario durability measurement.
type DurableRow struct {
	Mode        engine.Mode
	Scenario    string // ScenarioEngineKill or ScenarioNodeKill
	Victim      string // killed worker (node-kill only)
	KillAt      time.Duration
	Invocations int
	Completed   int
	FailedInv   int
	Lost        int // must be zero
	Durable     engine.DurableStats
	Repl        store.ReplStats
	Mean        time.Duration
	P99         time.Duration
	Snapshot    *obs.Snapshot
}

// Durable runs both durability scenarios under each mode with n
// invocations each (0 means durableInvocations).
func Durable(n int) ([]DurableRow, error) {
	n = orDefault(n, durableInvocations)
	return sweep([]string{ScenarioEngineKill, ScenarioNodeKill},
		func(mode engine.Mode, scenario string) (DurableRow, error) { return durableOne(n, mode, scenario) })
}

func durableOne(n int, mode engine.Mode, scenario string) (DurableRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	bus, log := observe(tb)
	d, err := tb.Deploy(workloads.ByName(durableBench), recoveryOptions(mode, journal.New(tb.Env, journal.Config{})))
	if err != nil {
		return DurableRow{}, fmt.Errorf("harness: durable deploy %s/%s: %w", durableBench, mode, err)
	}

	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	killAt := durableInterval * time.Duration(n) / 2
	victim := ""
	switch scenario {
	case ScenarioEngineKill:
		inj.AttachEngines(d.Engine)
		if err := inj.Install(faults.Schedule{{
			Kind: faults.EngineDown, At: killAt, Duration: durableEngineDown,
		}}); err != nil {
			return DurableRow{}, err
		}
	case ScenarioNodeKill:
		// k-way replicated FaaStore: sibling shards need quota headroom to
		// hold the extra copies, which per-deployment reclamation does not
		// grant on workers without placed tasks.
		tb.SetReplication(durableReplication, durableRepairDelay)
		for _, w := range tb.Workers {
			mem := tb.Mems[w]
			mem.SetQuota(mem.Quota() + 512<<20)
		}
		// Keep fault re-placement off nodes inside scheduled kill windows.
		d.Engine.SetAvoid(func(w string) bool {
			return inj.NodeDownAt(w, tb.Env.Now())
		})
		victim = chaosVictim(d.Placement.Worker, tb.Workers)
		if err := inj.Install(faults.Schedule{{
			Kind: faults.NodeDown, Node: victim, At: killAt, Duration: durableNodeDown,
		}}); err != nil {
			return DurableRow{}, err
		}
	default:
		return DurableRow{}, fmt.Errorf("harness: unknown durable scenario %q", scenario)
	}

	run := tb.Drive(Client{Target: d.Invoke, Arrivals: Arrivals{Interval: durableInterval}, N: n})[0]
	return DurableRow{
		Mode:        mode,
		Scenario:    scenario,
		Victim:      victim,
		KillAt:      killAt,
		Invocations: n,
		Completed:   run.Completed,
		FailedInv:   run.Failed,
		Lost:        run.Lost,
		Durable:     d.Engine.DurableStatsSnapshot(),
		Repl:        tb.Runtime.Store.ReplStats(),
		Mean:        run.Rec.Mean(),
		P99:         run.Rec.P99(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "durable-" + scenario,
			"bench":    durableBench,
			"mode":     mode.String(),
		}),
	}, nil
}

func (r DurableRow) snapshot() NamedSnapshot {
	return NamedSnapshot{fmt.Sprintf("durable-%s-%s.json", r.Mode, r.Scenario), r.Snapshot}
}

// CheckDurable enforces the durability gates:
//
//	every row       — zero lost invocations;
//	engine-kill     — the crash happened, replay skipped committed steps,
//	                  and no committed step re-executed (DupDrops == 0);
//	node-kill       — consumers recovered via replica reads, with zero
//	                  producer re-executions and zero lost inputs.
func CheckDurable(rows []DurableRow) error {
	for _, r := range rows {
		where := fmt.Sprintf("durable %s/%s", r.Mode, r.Scenario)
		if r.Lost > 0 {
			return fmt.Errorf("%s: lost %d of %d invocations", where, r.Lost, r.Invocations)
		}
		switch r.Scenario {
		case ScenarioEngineKill:
			if r.Durable.EngineCrashes == 0 {
				return fmt.Errorf("%s: engine never crashed", where)
			}
			if r.Durable.ReplaySkips == 0 {
				return fmt.Errorf("%s: replay skipped no committed steps", where)
			}
			if r.Durable.Journal.DupDrops != 0 {
				return fmt.Errorf("%s: %d committed steps re-executed", where, r.Durable.Journal.DupDrops)
			}
		case ScenarioNodeKill:
			if r.Repl.ReplicaReads == 0 {
				return fmt.Errorf("%s: no replica reads after the node kill", where)
			}
			if r.Durable.Reexecs != 0 || r.Durable.LostInputs != 0 {
				return fmt.Errorf("%s: %d producer re-executions / %d lost inputs; replicas should have absorbed the kill",
					where, r.Durable.Reexecs, r.Durable.LostInputs)
			}
		}
	}
	return nil
}

// RenderDurable builds the durability table.
func RenderDurable(rows []DurableRow) *metrics.Table {
	t := metrics.NewTable("mode", "scenario", "done", "lost", "failed",
		"crashes", "replayed", "redisp", "dups", "repl reads", "re-repl", "reexecs",
		"mean", "p99")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), r.Scenario,
			fmt.Sprintf("%d/%d", r.Completed, r.Invocations),
			fmt.Sprintf("%d", r.Lost), fmt.Sprintf("%d", r.FailedInv),
			fmt.Sprintf("%d", r.Durable.EngineCrashes),
			fmt.Sprintf("%d", r.Durable.ReplaySkips),
			fmt.Sprintf("%d", r.Durable.Redispatched),
			fmt.Sprintf("%d", r.Durable.Journal.DupDrops),
			fmt.Sprintf("%d", r.Repl.ReplicaReads),
			fmt.Sprintf("%d", r.Repl.ReReplications),
			fmt.Sprintf("%d", r.Durable.Reexecs),
			metrics.Millis(r.Mean), metrics.Millis(r.P99))
	}
	return t
}
