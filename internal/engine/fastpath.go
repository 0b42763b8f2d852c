package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements the data-plane fast path, three independent features
// toggled by Options.FastPath:
//
//   - Direct passing: when a cross-node edge's consumer placement is known
//     at producer completion, the output is pushed worker→worker over the
//     fabric (store.Hybrid.PushDirect) instead of paying the Put-to-remote
//     + Get round trip. Falls back to the store hop when placement is
//     unusable (a consumer's node is down), the push is rejected (quota,
//     remote-only tier), or replication requires a durable database copy.
//     The push attributes as CompDirect on the critical path.
//   - DAG-lookahead pre-warm: when a step starts executing, container
//     acquisitions are issued for every successor it will trigger — while
//     the predecessor is still running, so the acquisition adds pool
//     capacity in parallel with execution instead of queueing behind it.
//     The consumer claims the pre-warmed container at trigger time; only
//     the residual (non-overlapped) wait shows up as CompPrewarmOverlap.
//     Pre-warms cancel when the step is skipped, the invocation finishes
//     or crashes, or the acquire deadline passes.
//   - Memoization: step outputs are content-addressed by (function, input
//     hash); a hit replays the outputs after a cache-lookup delay instead
//     of acquiring a container and executing, attributed as CompMemoHit.
//
// Every fast-path cost sits downstream of the scheduler's placement inputs,
// so counterfactual re-simulation (internal/whatif) keeps its factor-1
// identity with all three features enabled.

// FastPathOptions toggles the data-plane fast path.
type FastPathOptions struct {
	// DirectPassing pushes outputs straight to consumer workers when their
	// placement is known at producer completion.
	DirectPassing bool
	// Prewarm issues successor container acquisitions while the predecessor
	// is still executing.
	Prewarm bool
	// Memoize replays content-addressed step outputs instead of executing
	// when the (function, input hash) key was produced before.
	Memoize bool
	// MemoLookup is the memo-cache lookup delay paid on a hit (default
	// 200µs when Memoize is set).
	MemoLookup time.Duration
}

// Enabled reports whether any fast-path feature is on.
func (f FastPathOptions) Enabled() bool {
	return f.DirectPassing || f.Prewarm || f.Memoize
}

// FastPathStats aggregates the fast-path counters.
type FastPathStats struct {
	// DirectPushes counts output edges placed via direct passing.
	DirectPushes int64
	// DirectFallbacks counts edges that qualified for direct passing but
	// fell back to the store hop (push rejected).
	DirectFallbacks int64
	// PrewarmIssued counts lookahead container acquisitions issued.
	PrewarmIssued int64
	// PrewarmHits counts executor attempts that claimed a pre-warmed slot.
	PrewarmHits int64
	// PrewarmCancelled counts pre-warm slots cancelled before being claimed
	// (skipped step, invocation end, wrong worker after re-placement).
	PrewarmCancelled int64
	// MemoHits counts steps whose outputs were replayed from the memo cache.
	MemoHits int64
	// MemoMisses counts memoizable steps that had to execute.
	MemoMisses int64
}

// FastPathStatsSnapshot reports current fast-path counters.
func (d *Deployment) FastPathStatsSnapshot() FastPathStats {
	return FastPathStats{
		DirectPushes:     d.directPushes,
		DirectFallbacks:  d.directFallbacks,
		PrewarmIssued:    d.prewarmIssued,
		PrewarmHits:      d.prewarmHits,
		PrewarmCancelled: d.prewarmCancelled,
		MemoHits:         d.memoHits,
		MemoMisses:       d.memoMisses,
	}
}

// ---------------------------------------------------------------------------
// Direct passing

// directTargets decides whether an output edge qualifies for direct passing
// and returns the deduplicated consumer workers (in consumer order), or nil
// to take the store hop: feature off, no consumers (terminal output — the
// client reads it from the remote store), replication configured (durability
// wants a database copy), or a consumer's node is down (its task will be
// re-placed, invalidating the placement the push would rely on).
func (d *Deployment) directTargets(inv *invocation, out output) []string {
	if !d.opts.FastPath.DirectPassing || len(out.consumers) == 0 {
		return nil
	}
	if d.rt.Store.ReplicationFactor() > 1 {
		return nil
	}
	targets := make([]string, 0, len(out.consumers))
	seen := map[string]bool{}
	for _, c := range out.consumers {
		w := inv.place[c]
		n := d.rt.Nodes[w]
		if n == nil || n.Failed() {
			return nil
		}
		if !seen[w] {
			seen[w] = true
			targets = append(targets, w)
		}
	}
	return targets
}

// ---------------------------------------------------------------------------
// DAG-lookahead pre-warm

// prewarmSlot is one lookahead container acquisition for a successor step.
type prewarmSlot struct {
	worker    string
	c         *cluster.Container
	err       error
	delivered bool
	cancelled bool
	// claim, when set by a consumer that arrived before delivery, fires at
	// the delivery instant so the waiting executor resumes immediately.
	claim func()
}

// prewarmSet holds the un-claimed slots for one step, in issue order.
type prewarmSet struct {
	slots []*prewarmSlot
}

// issuePrewarms runs when step id starts executing: it pre-acquires
// containers for every successor that id's completion will trigger.
// Idempotent per (invocation, producer) — replica fan-outs and crash
// retries do not re-issue.
func (d *Deployment) issuePrewarms(inv *invocation, id dag.NodeID) {
	if !d.opts.FastPath.Prewarm || inv.abandoned || d.deadlineExceeded(inv) {
		return
	}
	if inv.prewarmed == nil {
		inv.prewarmed = make([]bool, d.g.Len())
	}
	if inv.prewarmed[id] {
		return
	}
	inv.prewarmed[id] = true
	var cands []dag.NodeID
	d.collectPrewarm(inv, id, d.skippedOutEdges(inv, id), &cands)
	for _, c := range cands {
		d.prewarmStep(inv, c)
	}
}

// collectPrewarm finds the task nodes id's completion will trigger: direct
// successors — looking through virtual markers, which resolve instantly —
// whose only unresolved predecessor is id itself. A successor still waiting
// on another predecessor is left alone; pre-warming it would hold a
// container for an unbounded join wait.
func (d *Deployment) collectPrewarm(inv *invocation, id dag.NodeID, skipped map[int]bool, out *[]dag.NodeID) {
	for i := range d.g.OutDegree(id) {
		ei := d.g.OutEdge(id, i)
		if skipped[ei] {
			continue
		}
		succ := d.g.Edge(ei).To
		if inv.started[succ] || inv.predsDone[succ] != d.g.InDegree(succ)-1 {
			continue
		}
		if d.g.Node(succ).Kind == dag.KindVirtual {
			d.collectPrewarm(inv, succ, d.skippedOutEdges(inv, succ), out)
			continue
		}
		*out = append(*out, succ)
	}
}

// prewarmStep issues Width lookahead acquisitions for step id on its placed
// worker. A step already holding a set, placed on a dead node, or certain
// to memo-hit (no container needed) is skipped.
func (d *Deployment) prewarmStep(inv *invocation, id dag.NodeID) {
	if _, dup := inv.prewarm[id]; dup {
		return
	}
	if d.opts.FastPath.Memoize && d.memo[d.contentHash(inv, id)] {
		return
	}
	node := d.g.Node(id)
	worker := inv.place[id]
	w := d.rt.Nodes[worker]
	if w == nil || w.Failed() {
		return
	}
	if inv.prewarm == nil {
		inv.prewarm = map[dag.NodeID]*prewarmSet{}
	}
	set := &prewarmSet{}
	inv.prewarm[id] = set
	for i := 0; i < node.Width; i++ {
		slot := &prewarmSlot{worker: worker}
		set.slots = append(set.slots, slot)
		d.prewarmIssued++
		w.AcquireOpts(node.Function, cluster.AcquireOptions{Deadline: inv.deadline, Tenant: inv.tenant}, func(c *cluster.Container, cold bool, err error) {
			slot.delivered = true
			slot.c, slot.err = c, err
			if slot.cancelled || inv.abandoned {
				if c != nil {
					w.Release(c)
				}
				slot.c = nil
				return
			}
			if slot.claim != nil {
				claim := slot.claim
				slot.claim = nil
				claim()
			}
		})
	}
}

// takePrewarm pops the next usable pre-warmed slot for (inv, id) on worker,
// or nil when none is pending. Slots on the wrong worker (the step was
// re-placed after a fault) or whose container was lost are cancelled and
// skipped — their delivery callback releases the container.
func (d *Deployment) takePrewarm(inv *invocation, id dag.NodeID, worker string) *prewarmSlot {
	set := inv.prewarm[id]
	if set == nil {
		return nil
	}
	for len(set.slots) > 0 {
		slot := set.slots[0]
		set.slots = set.slots[1:]
		if len(set.slots) == 0 {
			delete(inv.prewarm, id)
		}
		if slot.cancelled {
			continue
		}
		if slot.worker != worker {
			d.cancelSlot(slot)
			continue
		}
		if slot.delivered && (slot.err != nil || slot.c == nil || slot.c.Dead()) {
			continue // failed acquisition; fall through to a fresh acquire
		}
		return slot
	}
	delete(inv.prewarm, id)
	return nil
}

// cancelSlot marks one slot cancelled, releasing its container if already
// delivered (an undelivered slot releases at its delivery callback).
func (d *Deployment) cancelSlot(slot *prewarmSlot) {
	if slot.cancelled {
		return
	}
	slot.cancelled = true
	d.prewarmCancelled++
	if slot.delivered && slot.c != nil {
		d.rt.Nodes[slot.worker].Release(slot.c)
		slot.c = nil
	}
}

// cancelPrewarms cancels every pending pre-warm slot for step id — called
// when the step resolves as a skip (switch branch not taken, deadline
// drain, failure propagation) and will never claim them.
func (d *Deployment) cancelPrewarms(inv *invocation, id dag.NodeID) {
	set := inv.prewarm[id]
	if set == nil {
		return
	}
	delete(inv.prewarm, id)
	for _, slot := range set.slots {
		d.cancelSlot(slot)
	}
}

// drainPrewarms cancels every pending pre-warm of an invocation — at
// invocation end and at an engine crash (the orphaned invocation's slots
// would otherwise hold containers forever).
func (d *Deployment) drainPrewarms(inv *invocation) {
	if len(inv.prewarm) == 0 {
		return
	}
	ids := make([]dag.NodeID, 0, len(inv.prewarm))
	for id := range inv.prewarm {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d.cancelPrewarms(inv, id)
	}
}

// ---------------------------------------------------------------------------
// Content-addressed memoization

// contentHash fingerprints step id's inputs for this invocation: the
// function, node name and width, the invocation arguments, and — because
// payload content is not modeled — the content hashes of every predecessor,
// transitively. Two invocations with equal arguments hash identically node
// for node, which is exactly the memo-key semantics: the same function on
// the same inputs. Invocation IDs and timing never enter the hash.
func (d *Deployment) contentHash(inv *invocation, id dag.NodeID) uint64 {
	if inv.chash == nil {
		inv.chash = make([]uint64, d.g.Len())
	}
	if h := inv.chash[id]; h != 0 {
		return h
	}
	node := d.g.Node(id)
	h := sim.Mix(strHash(node.Function), strHash(node.Name), uint64(node.Width), d.argsHash(inv))
	for _, pred := range d.g.Preds(id) {
		h = sim.Mix(h, d.contentHash(inv, pred))
	}
	if h == 0 {
		h = 1 // 0 is the not-yet-computed sentinel in chash
	}
	inv.chash[id] = h
	return h
}

// argsHash fingerprints the invocation arguments (sorted keys, %v values),
// cached per invocation.
func (d *Deployment) argsHash(inv *invocation) uint64 {
	if inv.argsHashed {
		return inv.argsH
	}
	h := uint64(0x9e3779b97f4a7c15)
	if inv.args != nil {
		keys := make([]string, 0, len(inv.args))
		for k := range inv.args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = sim.Mix(h, strHash(k), strHash(fmt.Sprintf("%v", inv.args[k])))
		}
	}
	inv.argsHashed, inv.argsH = true, h
	return h
}

// strHash is FNV-1a.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// runMemoHit completes a memoized step: after the cache-lookup delay
// (attributed as CompMemoHit) the step's outputs are materialized replica
// by replica — downstream consumers read real keys, and in durable mode the
// caller's completion still routes through commitStep — without acquiring a
// container or executing.
func (d *Deployment) runMemoHit(inv *invocation, id dag.NodeID, onDone func(failed bool)) {
	t0 := d.rt.Env.Now()
	d.rt.Env.Schedule(d.opts.FastPath.MemoLookup, func() {
		if inv.abandoned {
			return
		}
		d.span(inv, id, 0, "memo", t0)
		if d.deadlineExceeded(inv) {
			d.failDeadline(inv, id, "memo")
			d.pubStep(inv, id, obs.StepFailed)
			onDone(true)
			return
		}
		node := d.g.Node(id)
		workerID := inv.place[id]
		rep := 0
		var step func()
		step = func() {
			if rep == node.Width {
				onDone(false)
				return
			}
			r := rep
			rep++
			d.storeOutputs(inv, id, r, workerID, step)
		}
		step()
	})
}
