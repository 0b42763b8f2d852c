package engine

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements durable execution (the Durable Functions / Netherite
// recipe adapted to FaaSFlow's two scheduling patterns). With
// Options.Journal set, every task node's completion is appended to a
// write-ahead journal before its state update propagates — the step is
// "committed" once the journal batch syncs. CrashEngine models the engine
// process dying: all in-flight invocations are orphaned and the journal
// loses its un-synced tail. RestartEngine replays the journal per live
// invocation, rebuilds the DAG frontier (committed steps are skipped, skip
// waves re-derived from the invocation arguments), and re-dispatches only
// the uncommitted cut — through the mode-appropriate engine loop, with the
// crash-to-redispatch dead time attributed to CompReplay on the critical
// path.

// reexecKey identifies one producer re-execution slot.
type reexecKey struct {
	inv  int64
	node dag.NodeID
}

// commitStep appends a step-completion record to the journal and defers the
// step's state propagation to the record's durable instant. A duplicate
// (the step already committed, e.g. a lost-input producer re-run) is
// dropped by the journal and continues immediately.
func (d *Deployment) commitStep(inv *invocation, id dag.NodeID, attemptSeq int, onDone func(failed bool)) {
	commitStart := d.rt.Env.Now()
	var outKeys []string
	width := d.g.Node(id).Width
	for _, out := range d.outputs[id] {
		for rep := 0; rep < width; rep++ {
			outKeys = append(outKeys, d.keyFor(inv, out.edgeIdx, rep))
		}
	}
	d.jr.Append(journal.Record{
		Workflow:   d.bench.Name,
		Inv:        inv.id,
		Step:       int(id),
		AttemptSeq: attemptSeq,
		Tenant:     inv.tenant,
		Outputs:    outKeys,
	}, func(sim.Time) {
		if inv.abandoned {
			return
		}
		d.span(inv, id, 0, "commit", commitStart)
		d.pubStep(inv, id, obs.StepCommitted)
		onDone(false)
	})
}

// reexecProducer re-runs a committed producer whose only surviving output
// copy was lost (node death without enough replicas). Concurrent consumers
// of the same producer coalesce onto one re-run; the producer's re-commit
// is dropped by the journal's idempotency guard.
func (d *Deployment) reexecProducer(inv *invocation, id dag.NodeID, resume func()) {
	key := reexecKey{inv.id, id}
	if waiters, busy := d.reexec[key]; busy {
		d.reexec[key] = append(waiters, resume)
		return
	}
	d.reexec[key] = []func(){resume}
	d.reexecCount++
	d.pubStep(inv, id, obs.StepReplayed)
	d.runTask(inv, id, func(bool) {
		waiters := d.reexec[key]
		delete(d.reexec, key)
		for _, w := range waiters {
			w()
		}
	})
}

// liveInvIDs returns the in-flight invocation IDs, ascending.
func (d *Deployment) liveInvIDs() []int64 {
	ids := make([]int64, 0, len(d.liveInvs))
	for id := range d.liveInvs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CrashEngine models the engine process dying. The journal loses its
// un-synced tail (torn-tail truncation), every in-flight invocation is
// orphaned — executors and engine-loop callbacks holding them bail at the
// next boundary — and new invocations queue until RestartEngine. No-op
// without a journal: a non-durable engine cannot recover, so the fault is
// not modeled.
func (d *Deployment) CrashEngine() {
	if d.jr == nil || d.down {
		return
	}
	d.down = true
	d.crashedAt = d.rt.Env.Now()
	d.engineCrashes++
	d.jr.Crash()
	for _, id := range d.liveInvIDs() {
		inv := d.liveInvs[id]
		inv.abandoned = true
		// Orphaned pre-warm slots would hold containers forever (the
		// executor that was to claim them bails at its next boundary).
		d.drainPrewarms(inv)
	}
	d.reexec = map[reexecKey][]func(){}
	if d.obs.Active() {
		d.obs.Publish(obs.EngineFaultEvent{
			Workflow: d.bench.Name,
			Down:     true,
			At:       d.rt.Env.Now(),
		})
	}
}

// EngineDown reports whether the engine is crashed (durable mode only).
func (d *Deployment) EngineDown() bool { return d.down }

// RestartEngine brings a crashed engine back: every live invocation is
// rebuilt from the journal and its uncommitted frontier re-dispatched.
func (d *Deployment) RestartEngine() {
	if d.jr == nil || !d.down {
		return
	}
	d.down = false
	replayedBefore, redispatchedBefore := d.replaySkips, d.redispatched
	for _, id := range d.liveInvIDs() {
		d.replayInvocation(d.liveInvs[id])
	}
	if d.obs.Active() {
		d.obs.Publish(obs.EngineFaultEvent{
			Workflow:     d.bench.Name,
			Down:         false,
			Replayed:     int(d.replaySkips - replayedBefore),
			Redispatched: int(d.redispatched - redispatchedBefore),
			At:           d.rt.Env.Now(),
		})
	}
}

// replayInvocation rebuilds one invocation's trigger state from the journal
// and re-dispatches its frontier. The orphaned invocation object is
// replaced by a fresh one (same ID, done callback, and step attempt
// counters) so stale callbacks from before the crash can never touch the
// resumed run.
func (d *Deployment) replayInvocation(old *invocation) {
	d.resumeInvocation(old, d.jr.CommittedSteps(old.id), obs.CompReplay)
}

// resumeInvocation is the shared replay core: rebuild trigger state from a
// committed-step map and re-dispatch the uncommitted cut. comp labels the
// dead-time attribution — CompReplay for a same-engine restart, CompHandoff
// when a successor engine resumes a claimed invocation (the committed map
// then unions every federation member's journal).
func (d *Deployment) resumeInvocation(old *invocation, committed map[int]journal.Entry, comp obs.Component) {
	fresh := &invocation{
		id:        old.id,
		version:   old.version,
		place:     d.place,
		start:     old.start,
		args:      old.args,
		deadline:  old.deadline,
		tenant:    old.tenant,
		predsDone: make([]int, d.g.Len()),
		realIn:    make([]int, d.g.Len()),
		started:   make([]bool, d.g.Len()),
		sinksLeft: len(d.sinks),
		done:      old.done,
		keys:      old.keys,
		stepSeq:   old.stepSeq,
		reexecs:   old.reexecs,
	}
	d.liveInvs[old.id] = fresh
	topo, err := d.g.TopoSort()
	if err != nil {
		return // unreachable: the graph was validated acyclic at deploy
	}
	for _, id := range topo {
		if _, ok := committed[int(id)]; ok {
			// Committed: the step's outputs are durable — skip re-execution
			// and forward its state updates, re-deriving switch skips from
			// the invocation arguments (deterministic).
			fresh.started[id] = true
			d.replaySkips++
			skipped := d.skippedOutEdges(fresh, id)
			for i := range d.g.OutDegree(id) {
				ei := d.g.OutEdge(id, i)
				succ := d.g.Edge(ei).To
				fresh.predsDone[succ]++
				if !skipped[ei] {
					fresh.realIn[succ]++
				}
			}
			if d.g.OutDegree(id) == 0 {
				fresh.sinksLeft--
			}
			continue
		}
		if d.g.InDegree(id) > 0 && fresh.predsDone[id] == d.g.InDegree(id) && fresh.realIn[id] == 0 {
			// Resolved entirely by skips: forward the skip wave without
			// executing, exactly as the live path would have.
			fresh.started[id] = true
			for i := range d.g.OutDegree(id) {
				ei := d.g.OutEdge(id, i)
				fresh.predsDone[d.g.Edge(ei).To]++
			}
			if d.g.OutDegree(id) == 0 {
				fresh.sinksLeft--
			}
			continue
		}
	}
	if fresh.sinksLeft == 0 {
		// The crash hit after the last commit but before the completion
		// bookkeeping: one master slot finishes the invocation.
		d.master.process(func() {
			if !fresh.abandoned {
				d.finishInvocation(fresh)
			}
		})
		return
	}
	// The frontier: unresolved nodes whose predecessors are all resolved —
	// sources, or steps whose committed predecessors were mid-trigger (or
	// mid-execution) at the crash.
	for _, id := range topo {
		if fresh.started[id] || fresh.predsDone[id] != d.g.InDegree(id) {
			continue
		}
		d.redispatchStep(fresh, id, committed, comp)
	}
}

// redispatchStep re-issues one frontier step through the mode-appropriate
// engine loop. The trigger chain opens with a comp (CompReplay or
// CompHandoff) segment spanning from the binding committed predecessor's
// durable instant (or the invocation start) to the dispatch slot — the
// crash's or failover's dead time, which the critical-path walk then
// attributes contiguously.
func (d *Deployment) redispatchStep(inv *invocation, id dag.NodeID, committed map[int]journal.Entry, comp obs.Component) {
	from := -1
	replayFrom := inv.start
	for _, pred := range d.g.Preds(id) {
		if e, ok := committed[int(pred)]; ok && (from == -1 || e.At > replayFrom) {
			from = int(pred)
			replayFrom = e.At
		}
	}
	d.redispatched++
	switch d.opts.Mode {
	case ModeMasterSP:
		s := d.master.reserve()
		d.master.run(s, func() {
			if inv.abandoned {
				return
			}
			d.pubStep(inv, id, obs.StepReplayed)
			d.mspAssign(inv, id, from, d.chainProc(d.replaySeg(comp, replayFrom, s.enq), s))
		})
	default: // ModeWorkerSP: the master re-delivers the assignment to the
		// worker whose engine owns the step, like the initial invocation.
		s := d.master.reserve()
		d.master.run(s, func() {
			if inv.abandoned {
				return
			}
			d.pubStep(inv, id, obs.StepReplayed)
			pre := d.chainProc(d.replaySeg(comp, replayFrom, s.enq), s)
			sendAt := d.rt.Env.Now()
			d.rt.Fabric.SendMsg(d.rt.Master, inv.place[id], assignMsgBytes, func() {
				d.wspTrigger(inv, id, from, d.chainTransfer(pre, sendAt, d.rt.Env.Now()))
			})
		})
	}
}

// replaySeg builds the replay/handoff chain prefix covering [from, to).
func (d *Deployment) replaySeg(comp obs.Component, from, to sim.Time) []obs.Segment {
	if !d.obs.Active() || to <= from {
		return nil
	}
	return []obs.Segment{{Comp: comp, Start: from, End: to}}
}

// Journal exposes the deployment's write-ahead log (nil when not durable).
func (d *Deployment) Journal() *journal.WAL { return d.jr }

// DurableStats aggregates the durable-execution counters.
type DurableStats struct {
	// EngineCrashes counts CrashEngine calls.
	EngineCrashes int64
	// ReplaySkips counts committed steps a restart skipped re-executing.
	ReplaySkips int64
	// Redispatched counts frontier steps a restart re-issued.
	Redispatched int64
	// LostInputs counts input fetches that missed because every replica of
	// a committed producer's output died with its node.
	LostInputs int64
	// Reexecs counts committed producers re-executed to regenerate lost
	// outputs (zero when replication keeps a surviving copy).
	Reexecs int64
	// Adopted counts invocations this engine resumed after claiming them
	// from a federation peer whose lease expired.
	Adopted int64
	// FencedSteps counts engine-side epoch-fence rejections: dispatches and
	// executor phase boundaries where this engine learned it lost the
	// invocation's shard.
	FencedSteps int64
	// FencedAcquires counts container acquisitions the cluster rejected
	// with ErrFenced.
	FencedAcquires int64
	// Journal carries the write-ahead log's own counters.
	Journal journal.Stats
}

// DurableStatsSnapshot reports current durable-execution counters (zero
// values when the deployment has no journal).
func (d *Deployment) DurableStatsSnapshot() DurableStats {
	st := DurableStats{
		EngineCrashes:  d.engineCrashes,
		ReplaySkips:    d.replaySkips,
		Redispatched:   d.redispatched,
		LostInputs:     d.lostInputs,
		Reexecs:        d.reexecCount,
		Adopted:        d.adopted,
		FencedSteps:    d.fencedSteps,
		FencedAcquires: d.fencedAcquires,
	}
	if d.jr != nil {
		st.Journal = d.jr.Stats()
	}
	return st
}
