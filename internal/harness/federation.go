package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the federation chaos scenario pair:
//
//   - rolling-kill: a federation of member engines over one worker fleet,
//     with every member killed and restarted in turn while an open-loop
//     client keeps submitting. Gates: every invocation completes, zero
//     lost, zero committed steps re-executed (DupDrops == 0 on every
//     member's journal) while replay actually skipped work
//     (ReplaySkips > 0), no invocation finished twice (DupDones == 0),
//     and no shard's failover dead time exceeded the detection + handoff
//     budget.
//   - stall: one member pauses lease renewals past the TTL while its
//     engine keeps running — the detector's false positive. A peer claims
//     the live member's shards and the stale owner's late work must be
//     fenced (FencedTotal > 0), again with every invocation completing
//     exactly once.
//
// Both runs are deterministic; same-spec runs yield byte-identical
// snapshots, which CI diffs across two invocations.

// FederationSpec configures one federated chaos run.
type FederationSpec struct {
	Members     int // federation size (default 3)
	Invocations int // total submissions (default 24)
	Seed        uint64
}

// Federation scenario constants.
const (
	federationBench        = "IR"
	federationMembers      = 3
	federationInvocations  = 24
	federationInterval     = 400 * time.Millisecond // open-loop arrival spacing
	federationShards       = 16                     // ownership shards
	federationLeaseTTL     = time.Second
	federationRenewEvery   = 250 * time.Millisecond // lease renewal period
	federationCheckEvery   = 250 * time.Millisecond // detector sweep period
	federationHandoffDelay = 100 * time.Millisecond // claim -> replay grace
	federationKillStart    = 2 * time.Second        // first kill instant
	federationKillEvery    = 4 * time.Second        // kill spacing
	federationDownFor      = 2 * time.Second        // restart delay per kill
	federationStallFor     = 3 * federationLeaseTTL // stall scenario window
	// federationHandoffBudget is FederationRow.HandoffBudget.
	federationHandoffBudget = federationCheckEvery + federationCheckEvery/4 +
		federationHandoffDelay + 500*time.Millisecond
)

// Federation scenario names.
const (
	ScenarioRollingKill = "rolling-kill"
	ScenarioStall       = "stall"
)

// FederationRow is one mode × scenario federated-chaos measurement.
type FederationRow struct {
	Mode        engine.Mode
	Scenario    string
	Members     int
	Invocations int
	Completed   int
	FailedInv   int
	Lost        int // must be zero
	Retried     int // admissions that hit a handoff window and re-submitted
	Fed         federation.Stats
	// Handoffs counts HandoffEvents; MaxHandoff is the worst failover dead
	// time (replay instant minus the victim's lease expiry) across them.
	Handoffs   int
	MaxHandoff time.Duration
	// HandoffBudget is the detection + replay allowance MaxHandoff is
	// gated against: one sweep period (plus its max jitter) to detect the
	// expiry, the handoff grace, and scheduling slack.
	HandoffBudget time.Duration
	Mean          time.Duration
	P99           time.Duration
	Snapshot      *obs.Snapshot
}

// Federation runs both federated chaos scenarios under each mode.
func Federation(spec FederationSpec, modes []engine.Mode) ([]FederationRow, error) {
	spec.Members = orDefault(spec.Members, federationMembers)
	spec.Invocations = orDefault(spec.Invocations, federationInvocations)
	return sweep(modes, []string{ScenarioRollingKill, ScenarioStall},
		func(mode engine.Mode, scenario string) (FederationRow, error) {
			return federationOne(spec, mode, scenario)
		})
}

func federationOne(spec FederationSpec, mode engine.Mode, scenario string) (FederationRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true, Seed: spec.Seed})
	bus, log := observe(tb)
	handoffs := 0
	var maxHandoff sim.Time
	bus.Subscribe(func(ev obs.Event) {
		if he, ok := ev.(obs.HandoffEvent); ok {
			handoffs++
			if d := he.At - he.Expired; d > maxHandoff {
				maxHandoff = d
			}
		}
	})

	deps, err := tb.DeployReplicas(workloads.ByName(federationBench), spec.Members, func(i int) engine.Options {
		return recoveryOptions(mode, journal.New(tb.Env, journal.Config{}))
	})
	if err != nil {
		return FederationRow{}, fmt.Errorf("harness: federated deploy %s/%s: %w", federationBench, mode, err)
	}
	members := make([]federation.Member, len(deps))
	for i, d := range deps {
		members[i] = federation.Member{
			ID:      fmt.Sprintf("e%d", i),
			Engine:  d.Engine,
			Journal: d.Engine.Journal(),
		}
	}
	fed, err := federation.New(tb.Env, federation.Config{
		Shards:       federationShards,
		LeaseTTL:     federationLeaseTTL,
		RenewEvery:   federationRenewEvery,
		CheckEvery:   federationCheckEvery,
		HandoffDelay: federationHandoffDelay,
		Seed:         spec.Seed + 1, // 0 would fall back to the default seed
	}, bus, members...)
	if err != nil {
		return FederationRow{}, err
	}

	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	inj.AttachFederation(fed)
	var sched faults.Schedule
	switch scenario {
	case ScenarioRollingKill:
		sched = faults.RollingEngineKills(fed.MemberIDs(), federationKillStart, federationKillEvery, federationDownFor)
	case ScenarioStall:
		sched = faults.Schedule{{
			Kind: faults.EngineStall, Engine: fed.MemberIDs()[0],
			At: federationKillStart, Duration: federationStallFor,
		}}
	default:
		return FederationRow{}, fmt.Errorf("harness: unknown federation scenario %q", scenario)
	}
	if err := inj.Install(sched); err != nil {
		return FederationRow{}, err
	}

	rec := &metrics.Recorder{}
	completed, failed, retried := 0, 0, 0
	for i := 0; i < spec.Invocations; i++ {
		delay := time.Duration(i) * federationInterval
		var submit func()
		submit = func() {
			_, err := fed.Invoke(engine.InvokeOptions{}, func(r engine.Result) {
				completed++
				if r.Failed {
					failed++
				}
				rec.Add(r.Latency())
			})
			if he, ok := err.(*federation.HandoffError); ok {
				// The shard is mid-handoff: honor the Retry-After, exactly
				// as a client behind the gateway's 503 would.
				retried++
				tb.Env.Schedule(he.RetryAfter, submit)
			}
		}
		tb.Env.Schedule(delay, submit)
	}
	// The lease/detector timers tick forever; run to a horizon that covers
	// every fault window plus recovery, stop the control plane, and drain.
	horizon := federationKillStart + time.Duration(spec.Members)*federationKillEvery +
		time.Duration(spec.Invocations)*federationInterval + 2*time.Minute
	tb.Env.RunUntil(sim.Time(horizon))
	fed.Stop()
	tb.Env.Run()

	return FederationRow{
		Mode:          mode,
		Scenario:      scenario,
		Members:       spec.Members,
		Invocations:   spec.Invocations,
		Completed:     completed,
		FailedInv:     failed,
		Lost:          spec.Invocations - completed,
		Retried:       retried,
		Fed:           fed.Stats(),
		Handoffs:      handoffs,
		MaxHandoff:    maxHandoff.Duration(),
		HandoffBudget: federationHandoffBudget,
		Mean:          rec.Mean(),
		P99:           rec.P99(),
		Snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "federation-" + scenario,
			"bench":    federationBench,
			"mode":     mode.String(),
		}),
	}, nil
}

func (r FederationRow) snapshot() NamedSnapshot {
	return NamedSnapshot{fmt.Sprintf("federation-%s-%s.json", r.Mode, r.Scenario), r.Snapshot}
}

// CheckFederation enforces the federated-chaos gates:
//
//	every row    — zero lost invocations, zero double-finishes
//	               (DupDones == 0), and zero committed steps re-executed
//	               on any member (DupDrops == 0);
//	rolling-kill — every member failed over at least once (claims and
//	               adoptions happened), replay skipped committed work, and
//	               the worst failover dead time stayed within the
//	               detection + handoff budget;
//	stall        — the false positive triggered a claim and the stale
//	               owner's late work was fenced at some layer.
func CheckFederation(rows []FederationRow) error {
	for _, r := range rows {
		where := fmt.Sprintf("federation %s/%s", r.Mode, r.Scenario)
		if r.Lost > 0 {
			return fmt.Errorf("%s: lost %d of %d invocations", where, r.Lost, r.Invocations)
		}
		if r.Fed.DupDones != 0 {
			return fmt.Errorf("%s: %d invocations finished twice", where, r.Fed.DupDones)
		}
		for _, m := range r.Fed.Members {
			if m.DupDrops != 0 {
				return fmt.Errorf("%s: member %s re-executed %d committed steps", where, m.ID, m.DupDrops)
			}
		}
		switch r.Scenario {
		case ScenarioRollingKill:
			if r.Fed.Claims == 0 || r.Fed.Adoptions == 0 {
				return fmt.Errorf("%s: no failover happened (claims=%d adoptions=%d)",
					where, r.Fed.Claims, r.Fed.Adoptions)
			}
			var skips int64
			for _, m := range r.Fed.Members {
				skips += m.ReplaySkips
			}
			if skips == 0 {
				return fmt.Errorf("%s: handoff replay skipped no committed steps", where)
			}
			if r.Handoffs == 0 {
				return fmt.Errorf("%s: no HandoffEvents recorded", where)
			}
			if r.MaxHandoff > r.HandoffBudget {
				return fmt.Errorf("%s: worst failover dead time %v exceeds budget %v",
					where, r.MaxHandoff, r.HandoffBudget)
			}
		case ScenarioStall:
			if r.Fed.Claims == 0 {
				return fmt.Errorf("%s: the false positive never triggered a claim", where)
			}
			if r.Fed.FencedTotal == 0 {
				return fmt.Errorf("%s: stale owner's late work was never fenced", where)
			}
		}
	}
	return nil
}

// RenderFederation builds the federated-chaos table.
func RenderFederation(rows []FederationRow) *metrics.Table {
	t := metrics.NewTable("mode", "scenario", "done", "lost", "failed", "retried",
		"claims", "adopted", "fenced", "dup-dones", "handoff-max", "mean", "p99")
	for _, r := range rows {
		t.AddRow(r.Mode.String(), r.Scenario,
			fmt.Sprintf("%d/%d", r.Completed, r.Invocations),
			fmt.Sprintf("%d", r.Lost), fmt.Sprintf("%d", r.FailedInv),
			fmt.Sprintf("%d", r.Retried),
			fmt.Sprintf("%d", r.Fed.Claims),
			fmt.Sprintf("%d", r.Fed.Adoptions),
			fmt.Sprintf("%d", r.Fed.FencedTotal),
			fmt.Sprintf("%d", r.Fed.DupDones),
			metrics.Millis(r.MaxHandoff),
			metrics.Millis(r.Mean), metrics.Millis(r.P99))
	}
	return t
}
