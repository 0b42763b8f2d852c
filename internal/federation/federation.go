// Package federation implements a deterministic multi-engine control
// plane over the simulation clock: several engine deployments (members)
// jointly own a workflow's invocations, partitioned into shards by
// consistent hashing on the invocation ID.
//
// Liveness is lease-based. Every member renews a lease each RenewEvery;
// the lease expiring is the failure detector. The detector is deliberately
// fallible: a member that is merely slow (StallEngine) stops renewing but
// keeps executing, so a peer's sweep sees an expired lease and claims the
// shards of an engine that is still alive — a real ownership race. The
// race is resolved by epoch fencing, not by the detector: every claim
// bumps the shard's epoch, and the stale owner's late work is rejected at
// engine dispatch, executor phase boundaries, cluster container grant, and
// journal append/sync. An invocation can therefore never be executed by
// two epochs, even when the detector was wrong.
//
// On a claim, the successor waits HandoffDelay (the window the gateway
// reports as 503 + Retry-After), then replays the claimed invocations from
// the union of every member's journal: committed steps are skipped, the
// uncommitted cut is re-dispatched on the successor, and the dead time is
// attributed to obs.CompHandoff on the trigger chains.
//
// Everything is deterministic: member sweep phases are jittered from
// Config.Seed, so which peer wins a claim race is a pure function of the
// seed, and same-seed runs produce byte-identical observability snapshots.
package federation

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config tunes the federation control plane.
type Config struct {
	// Shards is the number of ownership shards invocations hash into
	// (default 16).
	Shards int
	// LeaseTTL is how long a renewal keeps a member's lease alive
	// (default 2s). It bounds failover detection time — and it is the
	// false-positive window: a member that stalls longer than LeaseTTL
	// without dying is declared failed.
	LeaseTTL time.Duration
	// RenewEvery is the lease renewal period (default 500ms).
	RenewEvery time.Duration
	// CheckEvery is the detector sweep period per member (default 500ms);
	// each member's sweeps are phase-jittered from Seed so claim races
	// have a deterministic winner.
	CheckEvery time.Duration
	// HandoffDelay is the pause between a shard claim and the successor's
	// journal replay (default 250ms) — the grace for in-flight fsyncs to
	// land (or be fenced) before the union view is read. The gateway
	// reports requests routed to a mid-handoff shard as 503 with
	// Retry-After until the window closes.
	HandoffDelay time.Duration
	// Seed drives sweep jitter (default 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.RenewEvery <= 0 {
		c.RenewEvery = 500 * time.Millisecond
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 500 * time.Millisecond
	}
	if c.HandoffDelay <= 0 {
		c.HandoffDelay = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Member is one engine a federation coordinates: a durable deployment and
// its own write-ahead log. Per-member logs are load-bearing — a member
// crash tears only its own journal's un-synced tail, and handoff replay
// reads the union view across all logs.
type Member struct {
	ID      string
	Engine  *engine.Deployment
	Journal *journal.WAL
}

// HandoffError is the typed admission rejection for an invocation routed
// to a shard that is mid-handoff: a successor claimed it and its journal
// replay has not finished. The gateway maps it to 503 + Retry-After.
type HandoffError struct {
	Shard      int
	RetryAfter time.Duration
}

func (e *HandoffError) Error() string {
	return fmt.Sprintf("federation: shard %d is mid-handoff, retry after %v", e.Shard, e.RetryAfter)
}

// ErrNoOwner reports an invocation routed while every member is dead.
var ErrNoOwner = errors.New("federation: no live owner for shard")

type memberState struct {
	id      string
	eng     *engine.Deployment
	jr      *journal.WAL
	idx     int
	expiry  sim.Time
	alive   bool // false between KillEngine and RestartEngine
	stalled bool // renewals and sweeps paused; engine still executing
	rnd     *sim.Rand
	// loopGen invalidates in-flight renewal/sweep ticks across a
	// kill/restart cycle, so a restart racing a still-pending tick can
	// never leave two live loops behind.
	loopGen int
}

type invState struct {
	id       int64
	shard    int
	start    sim.Time
	opts     engine.InvokeOptions
	done     func(engine.Result)
	finished bool
	failed   bool
	owner    string // member that currently runs it (routing-time, then claims)
}

// Federation is the sharded ownership control plane. Not safe for
// concurrent use; the simulation is single-threaded by design.
type Federation struct {
	env     *sim.Env
	cfg     Config
	bus     *obs.Bus
	members []*memberState
	byID    map[string]*memberState

	shardOwner   []int      // member index per shard
	shardEpoch   []int64    // fencing epoch per shard
	handoffUntil []sim.Time // gateway 503 window end per shard

	invs    map[int64]*invState
	nextInv int64

	invocations int64
	completed   int64
	failed      int64
	dupDones    int64
	rejected    int64
	renewals    int64
	expiries    int64
	claims      int64
	adoptions   int64
}

// New builds a federation over the given members (at least one), installs
// the ownership fences on every member's engine and journal, assigns
// shards round-robin, and schedules the renewal and detector loops. bus
// may be nil. All members must share env's clock.
func New(env *sim.Env, cfg Config, bus *obs.Bus, members ...Member) (*Federation, error) {
	if len(members) == 0 {
		return nil, errors.New("federation: at least one member required")
	}
	cfg = cfg.withDefaults()
	f := &Federation{
		env:          env,
		cfg:          cfg,
		bus:          bus,
		byID:         make(map[string]*memberState, len(members)),
		shardOwner:   make([]int, cfg.Shards),
		shardEpoch:   make([]int64, cfg.Shards),
		handoffUntil: make([]sim.Time, cfg.Shards),
		invs:         make(map[int64]*invState),
	}
	sorted := append([]Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, m := range sorted {
		if m.Engine == nil || m.Journal == nil {
			return nil, fmt.Errorf("federation: member %q needs an engine and a journal", m.ID)
		}
		if _, dup := f.byID[m.ID]; dup {
			return nil, fmt.Errorf("federation: duplicate member %q", m.ID)
		}
		ms := &memberState{
			id:     m.ID,
			eng:    m.Engine,
			jr:     m.Journal,
			idx:    i,
			expiry: env.Now() + sim.Time(cfg.LeaseTTL),
			alive:  true,
			rnd:    sim.NewRand(sim.Mix(cfg.Seed, hashID(m.ID))),
		}
		f.members = append(f.members, ms)
		f.byID[m.ID] = ms
		m.Engine.SetFence(m.ID, f.fenceFor(ms))
		m.Journal.SetFence(f.journalFenceFor(ms))
	}
	for s := range f.shardOwner {
		f.shardOwner[s] = s % len(f.members)
	}
	for _, m := range f.members {
		f.scheduleRenew(m)
		f.scheduleSweep(m)
	}
	return f, nil
}

// hashID folds a member ID into a mix seed.
func hashID(id string) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// shardOf hashes an invocation ID to its ownership shard.
func (f *Federation) shardOf(inv int64) int {
	return int(sim.Mix(uint64(inv)) % uint64(f.cfg.Shards))
}

// fenceFor builds the engine-side ownership check for one member.
func (f *Federation) fenceFor(m *memberState) func(int64) error {
	return func(inv int64) error {
		s := f.shardOf(inv)
		if f.shardOwner[s] == m.idx {
			return nil
		}
		return &engine.FencedError{Owner: f.members[f.shardOwner[s]].id, Epoch: f.shardEpoch[s]}
	}
}

// journalFenceFor builds the journal-side check: a record commits only
// while the appending member still owns the invocation's shard. Checked
// at append and again when the fsync lands (see internal/journal).
func (f *Federation) journalFenceFor(m *memberState) func(journal.Record) bool {
	return func(rec journal.Record) bool {
		return f.shardOwner[f.shardOf(rec.Inv)] == m.idx
	}
}

// scheduleRenew schedules one renewal tick for m.
func (f *Federation) scheduleRenew(m *memberState) {
	gen := m.loopGen
	f.env.Schedule(f.cfg.RenewEvery, func() {
		if !m.alive || m.loopGen != gen {
			return // dead or superseded: the loop resumes on RestartEngine
		}
		if !m.stalled {
			m.expiry = f.env.Now() + sim.Time(f.cfg.LeaseTTL)
			f.renewals++
			if f.bus.Active() {
				f.bus.Publish(obs.LeaseEvent{
					Engine: m.id, Renewed: true, Expiry: m.expiry, At: f.env.Now(),
				})
			}
		}
		f.scheduleRenew(m)
	})
}

// scheduleSweep schedules one detector sweep for m, phase-jittered from
// the member's seeded stream so concurrent claimants race deterministically
// (the earliest sweep after a lease expiry wins all of the victim's shards).
func (f *Federation) scheduleSweep(m *memberState) {
	gen := m.loopGen
	jitter := time.Duration(m.rnd.Intn(int(f.cfg.CheckEvery) / 4))
	f.env.Schedule(f.cfg.CheckEvery+jitter, func() {
		if !m.alive || m.loopGen != gen {
			return
		}
		if !m.stalled {
			f.sweep(m)
		}
		f.scheduleSweep(m)
	})
}

// sweep is one detector pass by m over its peers' leases.
func (f *Federation) sweep(m *memberState) {
	now := f.env.Now()
	for _, p := range f.members {
		if p == m || p.expiry >= now {
			continue
		}
		if f.shardsOwnedBy(p) == 0 {
			continue // already claimed (or never owned anything)
		}
		f.claim(m, p)
	}
}

// shardsOwnedBy counts shards currently owned by p.
func (f *Federation) shardsOwnedBy(p *memberState) int {
	n := 0
	for _, o := range f.shardOwner {
		if o == p.idx {
			n++
		}
	}
	return n
}

// claim moves every shard owned by the expired victim to the claimant:
// epochs bump (fencing the victim immediately), the gateway window opens,
// and the journal replay is scheduled after HandoffDelay. A crashed
// victim's claimed invocations are dropped from its replay set so a later
// restart cannot resurrect them; a stalled (alive) victim keeps running —
// its late work is fenced per-invocation, which is the ownership race the
// detector's false positive created.
func (f *Federation) claim(m, p *memberState) {
	now := f.env.Now()
	f.expiries++
	if f.bus.Active() {
		f.bus.Publish(obs.LeaseEvent{Engine: p.id, Renewed: false, Expiry: p.expiry, At: now})
	}
	var shards []int
	for s, o := range f.shardOwner {
		if o == p.idx {
			shards = append(shards, s)
		}
	}
	byShard := make(map[int][]int64, len(shards))
	var ids []int64
	for id, st := range f.invs {
		if st.finished || f.shardOwner[st.shard] != p.idx {
			continue
		}
		byShard[st.shard] = append(byShard[st.shard], id)
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	expiredAt := p.expiry
	for _, s := range shards {
		f.shardEpoch[s]++
		f.shardOwner[s] = m.idx
		f.handoffUntil[s] = now + sim.Time(f.cfg.HandoffDelay)
		f.claims++
		if f.bus.Active() {
			f.bus.Publish(obs.ShardClaimEvent{
				Shard: s, From: p.id, To: m.id, Epoch: f.shardEpoch[s],
				Invocations: len(byShard[s]), At: now,
			})
		}
	}
	if p.eng.EngineDown() {
		// Crashed victim: remove the claimed invocations from its replay
		// set. A stalled victim keeps them — fencing, not the detector,
		// resolves that race.
		p.eng.DropInvocations(ids)
	}
	f.env.Schedule(f.cfg.HandoffDelay, func() {
		f.adopt(m, p, shards, byShard, expiredAt, now)
	})
}

// adopt replays the claimed invocations on the successor from the union
// journal view, shard by shard, attributing per-shard replay counts to a
// HandoffEvent.
func (f *Federation) adopt(m *memberState, p *memberState, shards []int, byShard map[int][]int64, expiredAt, claimedAt sim.Time) {
	if !m.alive {
		return // the claimant died inside the window; its own failover re-claims
	}
	wals := make([]*journal.WAL, len(f.members))
	for i, mem := range f.members {
		wals[i] = mem.jr
	}
	view := journal.NewView(wals...)
	for _, s := range shards {
		if f.shardOwner[s] != m.idx {
			continue // re-claimed away while the window was open
		}
		before := m.eng.DurableStatsSnapshot()
		adopted := 0
		ids := append([]int64(nil), byShard[s]...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			st := f.invs[id]
			if st == nil || st.finished {
				continue // the stalled owner finished it before the fence cut in
			}
			st.owner = m.id
			adopted++
			f.adoptions++
			m.eng.AdoptInvocation(engine.AdoptSpec{
				ID:       id,
				Start:    st.start,
				Args:     st.opts.Args,
				Deadline: st.opts.Deadline,
				Tenant:   st.opts.Tenant,
				Done:     f.doneFor(st),
			}, view.CommittedSteps(id))
		}
		after := m.eng.DurableStatsSnapshot()
		if f.bus.Active() {
			f.bus.Publish(obs.HandoffEvent{
				Shard: s, From: p.id, To: m.id, Epoch: f.shardEpoch[s],
				Adopted:      adopted,
				Replayed:     int(after.ReplaySkips - before.ReplaySkips),
				Redispatched: int(after.Redispatched - before.Redispatched),
				Expired:      expiredAt,
				Start:        claimedAt,
				At:           f.env.Now(),
			})
		}
	}
}

// doneFor wraps an invocation's completion callback with the federation's
// exactly-once guard: ownership moves can leave both the old owner and the
// successor racing to finish (e.g. every step was already committed when
// the claim landed), and only the first finish may reach the client.
func (f *Federation) doneFor(st *invState) func(engine.Result) {
	return func(r engine.Result) {
		if st.finished {
			f.dupDones++
			return
		}
		st.finished = true
		st.failed = r.Failed
		f.completed++
		if r.Failed {
			f.failed++
		}
		st.done(r)
	}
}

// Invoke routes an invocation to its shard's owner engine. The ID is
// peeked, not consumed, until admission succeeds — a rejected request and
// its post-window retry land on the same shard, which is what makes the
// 503 + Retry-After contract coherent. Returns the assigned invocation ID.
func (f *Federation) Invoke(opts engine.InvokeOptions, done func(engine.Result)) (int64, error) {
	if done == nil {
		done = func(engine.Result) {}
	}
	id := f.nextInv
	s := f.shardOf(id)
	if until := f.handoffUntil[s]; f.env.Now() < until {
		f.rejected++
		return id, &HandoffError{Shard: s, RetryAfter: time.Duration(until - f.env.Now())}
	}
	owner := f.members[f.shardOwner[s]]
	f.nextInv++
	st := &invState{
		id:    id,
		shard: s,
		start: f.env.Now(),
		opts:  opts,
		done:  done,
		owner: owner.id,
	}
	f.invs[id] = st
	f.invocations++
	owner.eng.InvokeWithID(id, opts, f.doneFor(st))
	return id, nil
}

// HandoffPending reports whether any shard is currently inside its
// handoff window, and how long until the last open window closes. It is
// the gateway's coarse admission signal: a request arriving mid-handoff
// is answered 503 + Retry-After instead of racing the journal replay.
func (f *Federation) HandoffPending() (time.Duration, bool) {
	now := f.env.Now()
	var latest sim.Time
	for _, until := range f.handoffUntil {
		if until > latest {
			latest = until
		}
	}
	if latest <= now {
		return 0, false
	}
	return time.Duration(latest - now), true
}

// KillEngine crashes a member: its engine process dies (journal tears,
// in-flight work orphans) and its lease stops renewing, so a peer's sweep
// will claim its shards once the lease expires.
func (f *Federation) KillEngine(id string) error {
	m := f.byID[id]
	if m == nil {
		return fmt.Errorf("federation: unknown member %q", id)
	}
	if !m.alive {
		return nil
	}
	m.alive = false
	m.loopGen++
	m.eng.CrashEngine()
	return nil
}

// RestartEngine brings a killed member back: the engine restarts (replaying
// whatever invocations it still owns — claimed ones were dropped), the
// lease renews immediately, and the renewal and detector loops resume. The
// member owns no shards until it claims some from a future failure.
func (f *Federation) RestartEngine(id string) error {
	m := f.byID[id]
	if m == nil {
		return fmt.Errorf("federation: unknown member %q", id)
	}
	if m.alive {
		return nil
	}
	m.alive = true
	m.stalled = false
	m.loopGen++
	m.expiry = f.env.Now() + sim.Time(f.cfg.LeaseTTL)
	f.renewals++
	if f.bus.Active() {
		f.bus.Publish(obs.LeaseEvent{Engine: id, Renewed: true, Expiry: m.expiry, At: f.env.Now()})
	}
	m.eng.RestartEngine()
	f.scheduleRenew(m)
	f.scheduleSweep(m)
	return nil
}

// StallEngine pauses a member's renewals and sweeps for d while its engine
// keeps executing — the slow-but-alive case. If d outlives the lease TTL
// the detector reads the silence as death (a false positive) and a peer
// claims the shards; the stalled member's late work is then fenced. When
// the stall ends the member renews immediately and rejoins the detector,
// owning whatever shards were not claimed away.
func (f *Federation) StallEngine(id string, d time.Duration) error {
	m := f.byID[id]
	if m == nil {
		return fmt.Errorf("federation: unknown member %q", id)
	}
	if !m.alive || m.stalled {
		return fmt.Errorf("federation: cannot stall member %q (alive=%v stalled=%v)", id, m.alive, m.stalled)
	}
	m.stalled = true
	f.env.Schedule(d, func() {
		if !m.alive {
			return // killed during the stall
		}
		m.stalled = false
		m.expiry = f.env.Now() + sim.Time(f.cfg.LeaseTTL)
		f.renewals++
		if f.bus.Active() {
			f.bus.Publish(obs.LeaseEvent{Engine: id, Renewed: true, Expiry: m.expiry, At: f.env.Now()})
		}
	})
	return nil
}

// Stop cancels every member's renewal and detector loop. The federation's
// periodic timers otherwise keep the event queue non-empty forever, so a
// caller that drains the simulation with Env.Run (rather than RunUntil)
// must Stop the federation first. Routing, fencing, and in-flight handoffs
// keep working; only liveness tracking freezes.
func (f *Federation) Stop() {
	for _, m := range f.members {
		m.loopGen++
	}
}

// MemberIDs lists the members, sorted.
func (f *Federation) MemberIDs() []string {
	ids := make([]string, len(f.members))
	for i, m := range f.members {
		ids[i] = m.id
	}
	return ids
}

// Engine exposes a member's deployment (nil for unknown IDs).
func (f *Federation) Engine(id string) *engine.Deployment {
	if m := f.byID[id]; m != nil {
		return m.eng
	}
	return nil
}

// MemberStats is one member's row in Stats.
type MemberStats struct {
	ID             string   `json:"id"`
	Alive          bool     `json:"alive"`
	Stalled        bool     `json:"stalled"`
	Expiry         sim.Time `json:"expiry"`
	Shards         int      `json:"shards"`
	Adopted        int64    `json:"adopted"`
	FencedSteps    int64    `json:"fencedSteps"`
	FencedAcquires int64    `json:"fencedAcquires"`
	JournalFenced  int64    `json:"journalFenced"`
	Committed      int64    `json:"committed"`
	DupDrops       int64    `json:"dupDrops"`
	ReplaySkips    int64    `json:"replaySkips"`
	Redispatched   int64    `json:"redispatched"`
}

// Stats is a point-in-time snapshot of the federation's counters.
type Stats struct {
	Members []MemberStats `json:"members"`
	Epochs  []int64       `json:"epochs"`

	Invocations     int64 `json:"invocations"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	DupDones        int64 `json:"dupDones"`
	RejectedHandoff int64 `json:"rejectedHandoff"`
	Renewals        int64 `json:"renewals"`
	Expiries        int64 `json:"expiries"`
	Claims          int64 `json:"claims"`
	Adoptions       int64 `json:"adoptions"`
	// FencedTotal sums fence rejections across every layer and member:
	// engine steps, cluster acquires, and journal records.
	FencedTotal int64 `json:"fencedTotal"`
}

// Stats snapshots the federation.
func (f *Federation) Stats() Stats {
	st := Stats{
		Epochs:          append([]int64(nil), f.shardEpoch...),
		Invocations:     f.invocations,
		Completed:       f.completed,
		Failed:          f.failed,
		DupDones:        f.dupDones,
		RejectedHandoff: f.rejected,
		Renewals:        f.renewals,
		Expiries:        f.expiries,
		Claims:          f.claims,
		Adoptions:       f.adoptions,
	}
	for _, m := range f.members {
		ds := m.eng.DurableStatsSnapshot()
		js := m.jr.Stats()
		st.Members = append(st.Members, MemberStats{
			ID: m.id, Alive: m.alive, Stalled: m.stalled, Expiry: m.expiry,
			Shards:         f.shardsOwnedBy(m),
			Adopted:        ds.Adopted,
			FencedSteps:    ds.FencedSteps,
			FencedAcquires: ds.FencedAcquires,
			JournalFenced:  js.Fenced,
			Committed:      js.Committed,
			DupDrops:       js.DupDrops,
			ReplaySkips:    ds.ReplaySkips,
			Redispatched:   ds.Redispatched,
		})
		st.FencedTotal += ds.FencedSteps + ds.FencedAcquires + js.Fenced
	}
	return st
}

// ExhaustionFailures unions the typed re-issue exhaustion records across
// every member, sorted by invocation then step — the federation-level
// surface for engine.ErrReissuesExhausted.
func (f *Federation) ExhaustionFailures() []engine.ErrReissuesExhausted {
	var out []engine.ErrReissuesExhausted
	for _, m := range f.members {
		out = append(out, m.eng.FailureStatsSnapshot().Exhausted...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inv != out[j].Inv {
			return out[i].Inv < out[j].Inv
		}
		return out[i].Step < out[j].Step
	})
	return out
}
