package faasflow

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/sim"
)

// This file is the public engine-federation surface: deploy a workflow
// behind N member engines that shard invocation ownership by consistent
// hashing, renew leases as a failure detector, and — when a lease expires
// — fence the old owner by epoch, hand its journal to a successor, and
// resume the claimed invocations by replay (committed steps skipped,
// the uncommitted cut re-dispatched exactly once).

// FederationOptions tunes a federated deployment (DeployOptions.Federation):
// Members journaled engines share ownership of the invocation space, and a
// member crash (KillFederationMember, or an injected EngineKill fault)
// triggers lease expiry, an epoch-fenced shard claim by a survivor, and a
// journal handoff that resumes the dead member's invocations by replay.
// Determinism holds end to end: the same seed reproduces the same claim
// winners, fences, and replays. Each member's journal and recovery layer
// come from DeployOptions.Durability and DeployOptions.Recovery. Zero values
// take the defaults noted per field.
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

// Advance runs the simulation clock forward by d even with no client work
// pending, so lease renewals, expiry sweeps, and handoff replays progress
// — the time-control knob behind the gateway's federation admin actions.
func (c *Cluster) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.tb.Env.RunUntil(c.tb.Env.Now() + sim.Time(d))
}
