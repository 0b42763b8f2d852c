// Package journal implements a per-workflow write-ahead log on the
// simulation clock, after the Durable Functions / Netherite recipe: the
// engine appends a StepCommitted record once a step's outputs are stored,
// and on restart it replays the log to rebuild the DAG frontier without
// re-executing committed steps.
//
// The log models a real append-only file: appends accumulate into a group
// commit batch (BatchWindow), each batch costs one fsync (SyncLatency), and
// a crash mid-sync tears the tail of the in-flight batch — a deterministic
// prefix survives, the rest is lost. Commits are idempotent by
// (invocation, step): the first writer wins and later attempts are dropped,
// so a stale re-issued attempt can never double-commit a step.
package journal

import (
	"time"

	"repro/internal/sim"
)

// Record is one step-completion fact as submitted by the engine.
type Record struct {
	// Workflow names the benchmark/workflow the step belongs to.
	Workflow string `json:"workflow"`
	// Inv is the invocation the step ran under.
	Inv int64 `json:"inv"`
	// Step is the DAG node ID of the committed step.
	Step int `json:"step"`
	// AttemptSeq is the recovery-layer sequence number of the attempt
	// that produced the outputs (see internal/engine/recovery.go).
	AttemptSeq int `json:"attemptSeq"`
	// Tenant attributes the invocation's records to a tenant so attribution
	// survives crash replay and federation handoff. Omitted when empty, so
	// untenanted journals are byte-identical to pre-tenancy ones.
	Tenant string `json:"tenant,omitempty"`
	// Outputs lists the store keys (output locations) the step wrote.
	Outputs []string `json:"outputs,omitempty"`
}

// Entry is a durable record: a Record plus the instant its batch synced.
type Entry struct {
	Record
	// At is the virtual instant the record became durable.
	At sim.Time `json:"at"`
}

// Config tunes the journal's I/O cost model.
type Config struct {
	// SyncLatency is the cost of one fsync (default 2ms).
	SyncLatency time.Duration
	// BatchWindow is how long an open batch accumulates appends before
	// it syncs (group commit; default 500µs).
	BatchWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.SyncLatency <= 0 {
		c.SyncLatency = 2 * time.Millisecond
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 500 * time.Microsecond
	}
	return c
}

// Stats are cumulative journal counters.
type Stats struct {
	// Appends counts Append calls, including duplicates.
	Appends int64
	// Committed counts records that became durable.
	Committed int64
	// DupDrops counts appends dropped because the (inv, step) pair was
	// already committed or pending — each one is a double-commit the
	// idempotency guard prevented.
	DupDrops int64
	// Syncs counts fsync batches that completed.
	Syncs int64
	// TornTail counts records lost to torn-tail truncation at crash.
	TornTail int64
	// CrashDropped counts buffered (never-synced) records lost at crash.
	CrashDropped int64
	// Crashes counts Crash calls.
	Crashes int64
	// Fenced counts records rejected by the epoch fence — at Append (stale
	// owner submitting after its shard moved) or at sync completion (a
	// record buffered before the ownership change whose fsync landed after
	// it). Fenced records never commit and their callbacks never fire.
	Fenced int64
}

type stepKey struct {
	inv  int64
	step int
}

type pendingRec struct {
	rec  Record
	done func(sim.Time)
}

// WAL is a write-ahead log bound to a simulation environment. It is not
// safe for concurrent use (the simulation is single-threaded by design).
type WAL struct {
	env *sim.Env
	cfg Config

	entries []Entry
	byInv   map[int64]map[int]Entry
	durable map[stepKey]bool
	inBuf   map[stepKey]bool

	pending []pendingRec
	syncing []pendingRec
	batchEv *sim.Event // closes the open batch; queued while one is open
	syncEv  *sim.Event // ends the in-flight fsync; queued while one runs
	// syncStart is when the in-flight fsync began, for torn-tail math.
	syncStart sim.Time

	// fence, when set, must return true for a record to commit. It is
	// checked at Append and again when a batch becomes durable, so a
	// record buffered under an owner that lost its shard mid-sync is
	// rejected exactly like a late append — the log is the last line of
	// defense against a stale engine double-committing a step.
	fence func(rec Record) bool

	stats Stats
}

// New returns an empty journal on env.
func New(env *sim.Env, cfg Config) *WAL {
	w := &WAL{
		env:     env,
		cfg:     cfg.withDefaults(),
		byInv:   map[int64]map[int]Entry{},
		durable: map[stepKey]bool{},
		inBuf:   map[stepKey]bool{},
	}
	w.batchEv = env.NewEvent(w.closeBatch)
	w.syncEv = env.NewEvent(w.syncDone)
	return w
}

// SetFence installs an ownership check consulted before any record
// commits: at Append time and again when its batch syncs. A record the
// fence rejects is dropped (counted in Stats.Fenced) and its callback
// never fires — mirroring a lease-protected log refusing a writer whose
// epoch is stale.
func (w *WAL) SetFence(fn func(rec Record) bool) { w.fence = fn }

// Append submits a step-completion record. done (optional) fires once the
// record is durable, with the durable instant; for a duplicate it fires
// immediately with the current time and the record is dropped. Callbacks
// for records buffered at a crash, and for records the fence rejects,
// never fire.
func (w *WAL) Append(rec Record, done func(at sim.Time)) {
	w.stats.Appends++
	if w.fence != nil && !w.fence(rec) {
		w.stats.Fenced++
		return
	}
	key := stepKey{rec.Inv, rec.Step}
	if w.durable[key] || w.inBuf[key] {
		w.stats.DupDrops++
		if done != nil {
			w.env.Schedule(0, func() { done(w.env.Now()) })
		}
		return
	}
	w.inBuf[key] = true
	w.pending = append(w.pending, pendingRec{rec: rec, done: done})
	if !w.batchEv.Queued() && !w.syncEv.Queued() {
		w.env.Reschedule(w.batchEv, w.env.After(w.cfg.BatchWindow))
	}
}

// closeBatch seals the open batch and starts its fsync. Called directly
// from syncDone, it also disarms the batch timer an append made from a
// durability callback may have armed: that append is in the sealed batch.
func (w *WAL) closeBatch() {
	w.batchEv.Cancel()
	if len(w.pending) == 0 {
		return
	}
	w.syncing = w.pending
	w.pending = nil
	w.syncStart = w.env.Now()
	w.env.Reschedule(w.syncEv, w.env.After(w.cfg.SyncLatency))
}

// syncDone makes the in-flight batch durable and fires its callbacks.
func (w *WAL) syncDone() {
	w.stats.Syncs++
	batch := w.syncing
	w.syncing = nil
	now := w.env.Now()
	for _, p := range batch {
		if w.fence != nil && !w.fence(p.rec) {
			w.stats.Fenced++
			delete(w.inBuf, stepKey{p.rec.Inv, p.rec.Step})
			continue
		}
		w.commit(p.rec, now)
		if p.done != nil {
			p.done(now)
		}
	}
	// Appends that arrived during the fsync form the next batch at once:
	// the group-commit window already elapsed while the disk was busy.
	if len(w.pending) > 0 {
		w.closeBatch()
	}
}

func (w *WAL) commit(rec Record, at sim.Time) {
	key := stepKey{rec.Inv, rec.Step}
	delete(w.inBuf, key)
	w.durable[key] = true
	e := Entry{Record: rec, At: at}
	w.entries = append(w.entries, e)
	m := w.byInv[rec.Inv]
	if m == nil {
		m = map[int]Entry{}
		w.byInv[rec.Inv] = m
	}
	m[rec.Step] = e
	w.stats.Committed++
}

// Crash models the engine process dying. The open batch is lost entirely;
// the in-flight fsync batch is torn — a prefix proportional to the elapsed
// fraction of SyncLatency survives (the records physically written before
// the crash), the tail is truncated. No buffered callbacks fire.
func (w *WAL) Crash() {
	w.stats.Crashes++
	w.batchEv.Cancel()
	if w.syncEv.Queued() {
		w.syncEv.Cancel()
		elapsed := w.env.Now() - w.syncStart
		keep := int(int64(len(w.syncing)) * int64(elapsed) / int64(w.cfg.SyncLatency))
		if keep > len(w.syncing) {
			keep = len(w.syncing)
		}
		now := w.env.Now()
		for _, p := range w.syncing[:keep] {
			if w.fence != nil && !w.fence(p.rec) {
				w.stats.Fenced++
				delete(w.inBuf, stepKey{p.rec.Inv, p.rec.Step})
				continue
			}
			w.commit(p.rec, now)
		}
		w.stats.TornTail += int64(len(w.syncing) - keep)
		for _, p := range w.syncing[keep:] {
			delete(w.inBuf, stepKey{p.rec.Inv, p.rec.Step})
		}
		w.syncing = nil
	}
	w.stats.CrashDropped += int64(len(w.pending))
	for _, p := range w.pending {
		delete(w.inBuf, stepKey{p.rec.Inv, p.rec.Step})
	}
	w.pending = nil
}

// CommittedSteps returns the durable records for one invocation, keyed by
// step. The map is a copy; iterate it in sorted step order for
// deterministic replay.
func (w *WAL) CommittedSteps(inv int64) map[int]Entry {
	out := map[int]Entry{}
	for step, e := range w.byInv[inv] {
		out[step] = e
	}
	return out
}

// Entries returns all durable records in commit order.
func (w *WAL) Entries() []Entry {
	out := make([]Entry, len(w.entries))
	copy(out, w.entries)
	return out
}

// Stats returns the cumulative counters.
func (w *WAL) Stats() Stats { return w.stats }
