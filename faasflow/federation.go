package faasflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the public engine-federation surface: deploy a workflow
// behind N member engines that shard invocation ownership by consistent
// hashing, renew leases as a failure detector, and — when a lease expires
// — fence the old owner by epoch, hand its journal to a successor, and
// resume the claimed invocations by replay (committed steps skipped,
// the uncommitted cut re-dispatched exactly once).

// FederationOptions tunes a federated deployment. Zero values take the
// defaults noted per field.
type FederationOptions struct {
	// Members is the number of member engines (default 3). Every member is
	// a full control-plane replica over the same scheduled placement; the
	// worker fleet and FaaStore quota are shared, not multiplied.
	Members int
	// Shards is the consistent-hash space invocations map onto (default 16).
	Shards int
	// LeaseTTL is how long a member lease lives without renewal (default
	// 2s); expiry is the failure detector, so a stall longer than the TTL
	// is indistinguishable from a crash until fencing resolves it.
	LeaseTTL time.Duration
	// RenewEvery is the members' lease-renewal period (default LeaseTTL/4).
	RenewEvery time.Duration
	// CheckEvery is the expiry-sweep period (default LeaseTTL/4); the
	// claim race between surviving members is decided by seed-derived
	// per-member sweep jitter, deterministically.
	CheckEvery time.Duration
	// HandoffDelay is the window after a claim during which the claimed
	// shards reject new invocations (HandoffError / HTTP 503 + Retry-After)
	// while the journal replay runs (default 250ms).
	HandoffDelay time.Duration
	// Seed drives the claim-race jitter (default: cluster seed + 1).
	Seed uint64
	// Durability tunes each member's journal and recovery layer, exactly
	// as in DeployDurable; every member gets its OWN journal — handoff
	// replays read the union view across members.
	Durability Durability
}

// FederationStats is the federation's counter set: epochs, lease
// renewals/expiries, shard claims, handoff adoptions, fenced operations,
// and the per-member breakdown.
type FederationStats = federation.Stats

// FederationMemberStats is one member's row in FederationStats.
type FederationMemberStats = federation.MemberStats

// HandoffError is the typed rejection for an invocation routed to a shard
// that is mid-handoff; RetryAfter says when the replay window closes. The
// gateway maps it to HTTP 503 + Retry-After.
type HandoffError = federation.HandoffError

// ExhaustionRecord identifies a step that burned its whole re-issue
// budget: workflow, invocation, step name, and attempt count. It is also
// a typed error (errors.As against *ExhaustionRecord).
type ExhaustionRecord = engine.ErrReissuesExhausted

// DeployFederated deploys the workflow behind a sharded engine federation:
// Members durable engines share ownership of the invocation space, and a
// member crash (KillFederationMember, or an injected EngineKill fault)
// triggers lease expiry, an epoch-fenced shard claim by a survivor, and a
// journal handoff that resumes the dead member's invocations by replay.
// Determinism holds end to end: the same seed reproduces the same claim
// winners, fences, and replays.
func (c *Cluster) DeployFederated(wf *Workflow, mode Mode, fo FederationOptions) (*App, error) {
	members := fo.Members
	if members == 0 {
		members = 3
	}
	if members < 0 {
		return nil, fmt.Errorf("faasflow: federation needs members > 0, got %d", members)
	}
	if fo.Durability.ReplicationFactor > 1 {
		c.tb.SetReplication(fo.Durability.ReplicationFactor, fo.Durability.RepairInterval)
	}
	var opts0 engine.Options
	deps, err := c.tb.DeployReplicas(wf.bench, members, func(i int) engine.Options {
		opts := c.durableOptions(fo.Durability, mode)
		if i == 0 {
			opts0 = opts
		}
		return opts
	})
	if err != nil {
		return nil, err
	}
	fedMembers := make([]federation.Member, len(deps))
	for i, d := range deps {
		fedMembers[i] = federation.Member{
			ID:      fmt.Sprintf("engine-%d", i),
			Engine:  d.Engine,
			Journal: d.Engine.Journal(),
		}
	}
	seed := fo.Seed
	if seed == 0 {
		seed = c.tb.Spec.Seed + 1
	}
	fed, err := federation.New(c.tb.Env, federation.Config{
		Shards:       fo.Shards,
		LeaseTTL:     fo.LeaseTTL,
		RenewEvery:   fo.RenewEvery,
		CheckEvery:   fo.CheckEvery,
		HandoffDelay: fo.HandoffDelay,
		Seed:         seed,
	}, c.tb.Bus(), fedMembers...)
	if err != nil {
		return nil, err
	}
	return &App{cluster: c, dep: deps[0], opts: opts0, fed: fed}, nil
}

// Federated reports whether the app was deployed behind a federation.
func (a *App) Federated() bool { return a.fed != nil }

// FederationStats reports the federation's counters (zero value for
// non-federated apps).
func (a *App) FederationStats() FederationStats {
	if a.fed == nil {
		return FederationStats{}
	}
	return a.fed.Stats()
}

// FederationMembers lists the member engine IDs, sorted.
func (a *App) FederationMembers() []string {
	if a.fed == nil {
		return nil
	}
	return a.fed.MemberIDs()
}

// HandoffPending reports whether any shard is inside its handoff window,
// and how long until the last window closes. Always false for
// non-federated apps.
func (a *App) HandoffPending() (time.Duration, bool) {
	if a.fed == nil {
		return 0, false
	}
	return a.fed.HandoffPending()
}

// KillFederationMember crashes a member engine: its journal tears at the
// crash instant, its lease stops renewing, and once the lease expires a
// survivor claims its shards and resumes its invocations by replay.
func (a *App) KillFederationMember(id string) error {
	if a.fed == nil {
		return fmt.Errorf("faasflow: workflow was not deployed federated")
	}
	return a.fed.KillEngine(id)
}

// RestartFederationMember brings a killed member back: it re-acquires a
// lease at the current epoch and becomes claimable shard ownership again.
// Its pre-crash invocations stay with whoever claimed them.
func (a *App) RestartFederationMember(id string) error {
	if a.fed == nil {
		return fmt.Errorf("faasflow: workflow was not deployed federated")
	}
	return a.fed.RestartEngine(id)
}

// StallFederationMember pauses a member's lease renewals for d without
// killing it — the failure-detector false positive. Its lease expires, a
// peer claims its shards, and the stale member's in-flight dispatches are
// rejected by epoch fencing rather than executed twice.
func (a *App) StallFederationMember(id string, d time.Duration) error {
	if a.fed == nil {
		return fmt.Errorf("faasflow: workflow was not deployed federated")
	}
	return a.fed.StallEngine(id, d)
}

// ExhaustionFailures lists every step that burned its entire re-issue
// budget, across all federation members for federated apps, sorted by
// invocation then step.
func (a *App) ExhaustionFailures() []ExhaustionRecord {
	if a.fed != nil {
		return a.fed.ExhaustionFailures()
	}
	return a.dep.Engine.FailureStatsSnapshot().Exhausted
}

// RunFederated sends n closed-loop invocations through the federation's
// shard router. Invocations that land on a mid-handoff shard retry
// automatically after the window closes (the wait counts toward client
// latency). It returns an error when the run cannot finish — every member
// dead, or the batch not draining within the deadline.
func (a *App) RunFederated(n int) (Stats, error) {
	if a.fed == nil {
		return Stats{}, fmt.Errorf("faasflow: workflow was not deployed federated")
	}
	env := a.cluster.tb.Env
	rec := &metrics.Recorder{}
	completed := 0
	var invokeErr error
	var launch func()
	launch = func() {
		if n <= 0 {
			return
		}
		n--
		start := env.Now()
		var submit func()
		submit = func() {
			_, err := a.fed.Invoke(engine.InvokeOptions{}, func(engine.Result) {
				rec.Add((env.Now() - start).Duration())
				completed++
				launch()
			})
			if err != nil {
				var he *HandoffError
				if errors.As(err, &he) {
					env.Schedule(he.RetryAfter, submit)
					return
				}
				invokeErr = err
				completed++
				launch()
			}
		}
		submit()
	}
	total := n
	launch()
	// The federation's renewal and sweep timers reschedule forever, so a
	// bare env.Run() would never drain; step the clock until the batch
	// completes (or a generous deadline passes).
	deadline := env.Now() + sim.Time(time.Duration(total)*harness.Timeout+time.Minute)
	for completed < total && env.Now() < deadline {
		env.RunUntil(env.Now() + sim.Time(100*time.Millisecond))
	}
	if invokeErr != nil {
		return statsOf(rec), invokeErr
	}
	if completed < total {
		return statsOf(rec), fmt.Errorf("faasflow: federated run stalled: %d/%d invocations completed", completed, total)
	}
	return statsOf(rec), nil
}

// Advance runs the simulation clock forward by d even with no client work
// pending, so lease renewals, expiry sweeps, and handoff replays progress
// — the time-control knob behind the gateway's federation admin actions.
func (c *Cluster) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.tb.Env.RunUntil(c.tb.Env.Now() + sim.Time(d))
}
