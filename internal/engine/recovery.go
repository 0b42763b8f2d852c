package engine

import (
	"errors"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements the engine's fault-recovery layer: per-attempt task
// timeouts, exponential backoff, and re-issue of executors stranded on dead
// nodes — including re-placing their tasks onto surviving workers. The
// recovery dispatch is mode-specific, mirroring where the trigger state
// lives: MasterSP re-issues from the master engine (which owns every task
// assignment), WorkerSP re-issues from the stranded task's predecessor
// worker (the engine that originally triggered it), falling back to the
// master when every predecessor's worker is dead too.

// execState tracks one executor slot — (invocation, node, replica) — across
// fault re-issues. seq invalidates stale attempts: every phase callback of
// an attempt re-checks that it is still the newest one, so an attempt
// abandoned by a timeout can never complete the step twice.
type execState struct {
	seq      int
	finished bool
}

// attempt is one executor attempt: container acquire → input fetch →
// execute → output store → release, guarded by the task timeout. Its
// methods are the phase callbacks — acquired, fetched, executed, stored,
// and timedOut for the timeout — so the whole attempt is one object rather
// than a chain of closures.
type attempt struct {
	d        *Deployment
	inv      *invocation
	id       dag.NodeID
	replica  int
	reissue  int
	st       *execState
	seq      int // st.seq at the start; a newer attempt makes this one stale
	onDone   func(failed bool)
	workerID string
	w        *cluster.Node
	exec     float64  // CPU-seconds to execute
	start    sim.Time // attempt start, which is also the container-wait start
	// phase labels the container-wait span: "acquire" for a fresh
	// acquisition, "prewarm" when a DAG-lookahead slot covers it — only the
	// residual (non-overlapped) wait then shows on the critical path.
	phase   string
	phaseAt sim.Time // start of the fetch, exec or store span under way
	timeout *sim.Event
	c       *cluster.Container
}

// startAttempt runs one executor attempt, guarded by the task timeout.
// reissue counts the executor's fault-driven re-issues so far.
func (d *Deployment) startAttempt(inv *invocation, id dag.NodeID, replica, reissue int, st *execState, onDone func(failed bool)) {
	if inv.abandoned {
		return // orphaned by an engine crash; replay owns the step now
	}
	if d.fenceCheck(inv, id, "dispatch") {
		return // shard moved to a successor; it owns the step now
	}
	node := d.g.Node(id)
	workerID := inv.place[id]
	w := d.rt.Nodes[workerID]
	st.seq++
	attemptStart := d.rt.Env.Now()

	if d.deadlineExceeded(inv) {
		// The invocation's deadline died before this attempt started (e.g.
		// a re-issue backoff outlived it): abandon without dispatching.
		st.finished = true
		d.failDeadline(inv, id, "dispatch")
		d.pubStep(inv, id, obs.StepFailed)
		onDone(true)
		return
	}

	if w.Failed() {
		// The target died between the trigger and this attempt; recover
		// immediately rather than waiting out the timeout.
		d.recoverExecutor(inv, id, replica, reissue, st, attemptStart, "node-down", onDone)
		return
	}

	a := &attempt{
		d: d, inv: inv, id: id, replica: replica, reissue: reissue,
		st: st, seq: st.seq, onDone: onDone, workerID: workerID, w: w,
		start: attemptStart, phase: "acquire",
	}
	if d.opts.TaskTimeout > 0 {
		a.timeout = d.rt.Env.NewEvent(a.timedOut)
		d.rt.Env.Reschedule(a.timeout, d.rt.Env.After(d.opts.TaskTimeout))
	}

	a.exec = d.bench.Functions[node.Function].ExecSeconds
	if !d.opts.NoJitter {
		a.exec *= execJitter(inv.id, id+dag.NodeID(replica)<<16)
	}
	if d.opts.ExecScale != nil {
		a.exec *= d.opts.ExecScale(node.Function)
	}

	acquire := cluster.AcquireOptions{Deadline: inv.deadline, Fence: d.clusterFence(inv), Tenant: inv.tenant}
	if slot := d.takePrewarm(inv, id, workerID); slot != nil {
		if !slot.delivered && w.WarmContainers(node.Function) > 0 {
			// The pre-warm is still cold-starting but a warm container sits
			// idle: reuse the warm one — waiting out the cold start would
			// regress below feature-off behavior. The cancelled slot's
			// container joins the pool when its cold start delivers.
			d.cancelSlot(slot)
			w.AcquireOpts(node.Function, acquire, a.acquired)
			return
		}
		a.phase = "prewarm"
		d.prewarmHits++
		if slot.delivered {
			// Acquired entirely under the predecessor's execution: hand off
			// on a fresh event; the prewarm span is zero-width.
			d.rt.Env.Schedule(0, func() { a.acquired(slot.c, false, slot.err) })
		} else {
			// Still in flight: the residual wait from here to delivery is
			// the non-overlapped tail, published as the prewarm span.
			slot.claim = func() { a.acquired(slot.c, false, slot.err) }
		}
		return
	}
	w.AcquireOpts(node.Function, acquire, a.acquired)
}

// stale reports whether a newer attempt, a finish, or an engine crash has
// overtaken this attempt; its remaining phase callbacks then only return
// the container.
func (a *attempt) stale() bool {
	return a.st.seq != a.seq || a.st.finished || a.inv.abandoned
}

// cancelTimeout disarms the task timeout, if one is armed.
func (a *attempt) cancelTimeout() {
	if a.timeout != nil {
		a.timeout.Cancel()
		a.timeout = nil
	}
}

// release returns the attempt's container, if it holds one.
func (a *attempt) release() {
	if a.c != nil {
		a.w.Release(a.c)
	}
}

// standDown ends the attempt at a phase boundary where ownership moved:
// the successor engine owns the step now.
func (a *attempt) standDown() {
	a.cancelTimeout()
	a.st.finished = true
	a.release()
}

// abortDeadline abandons the attempt at a phase boundary once the
// invocation deadline is dead: the container is returned immediately (no
// zombie work) and the step drains as a failure.
func (a *attempt) abortDeadline(where string) {
	a.cancelTimeout()
	a.st.finished = true
	a.release()
	a.d.failDeadline(a.inv, a.id, where)
	a.d.pubStep(a.inv, a.id, obs.StepFailed)
	a.onDone(true)
}

// timedOut fires when the attempt outlived the task timeout.
func (a *attempt) timedOut() {
	if a.stale() {
		return
	}
	d := a.d
	d.timeoutCount++
	d.pubStep(a.inv, a.id, obs.StepTimedOut)
	d.recoverExecutor(a.inv, a.id, a.replica, a.reissue, a.st, a.start, "timeout", a.onDone)
}

// acquired receives the container (or the reason there is none).
func (a *attempt) acquired(c *cluster.Container, _ bool, err error) {
	d, inv, id := a.d, a.inv, a.id
	if a.stale() {
		if c != nil {
			a.w.Release(c)
		}
		return
	}
	switch {
	case errors.Is(err, cluster.ErrDeadline):
		// The deadline expired while this request sat in the acquire
		// queue; the waiter was already withdrawn node-side.
		a.abortDeadline("acquire")
		return
	case errors.Is(err, cluster.ErrQueueFull):
		// Backpressure shed the request; fail the step so the workflow
		// drains quickly instead of piling more work on the node.
		a.cancelTimeout()
		a.st.finished = true
		inv.failed = true
		d.shedCount++
		d.pubStep(inv, id, obs.StepFailed)
		a.onDone(true)
		return
	case errors.Is(err, cluster.ErrFenced):
		// Ownership moved while this request sat in the acquire queue;
		// the node refused the grant, so stand down locally too.
		a.standDown()
		d.fencedAcquires++
		d.fenceCheck(inv, id, "acquire")
		return
	case err != nil:
		// The node failed while this request sat in the acquire queue.
		a.cancelTimeout()
		d.recoverExecutor(inv, id, a.replica, a.reissue, a.st, a.start, "node-down", a.onDone)
		return
	}
	a.c = c
	d.span(inv, id, a.replica, a.phase, a.start)
	d.issuePrewarms(inv, id)
	a.phaseAt = d.rt.Env.Now()
	if d.opts.Data == DataNone {
		a.fetched() // the inputs ship in the container image
		return
	}
	d.fetchInputs(inv, id, a.workerID, a.fetched)
}

// fetched runs once the inputs are in: execute on the worker's CPU.
func (a *attempt) fetched() {
	d, inv, id := a.d, a.inv, a.id
	if a.stale() {
		a.release()
		return
	}
	if d.deadlineExceeded(inv) {
		a.abortDeadline("fetch")
		return
	}
	if d.fenceCheck(inv, id, "exec") {
		a.standDown()
		return
	}
	d.span(inv, id, a.replica, "fetch", a.phaseAt)
	a.phaseAt = d.rt.Env.Now()
	a.w.Exec(a.exec, a.executed)
}

// executed runs when the function body finished: store the outputs.
func (a *attempt) executed() {
	d, inv, id := a.d, a.inv, a.id
	if a.stale() {
		a.release()
		return
	}
	if d.deadlineExceeded(inv) {
		a.abortDeadline("exec")
		return
	}
	d.span(inv, id, a.replica, "exec", a.phaseAt)
	if d.fenceCheck(inv, id, "store") {
		a.standDown()
		return
	}
	a.phaseAt = d.rt.Env.Now()
	if d.opts.Data == DataNone {
		a.stored() // no payload leaves the container
		return
	}
	d.storeOutputs(inv, id, a.replica, a.workerID, a.stored)
}

// stored completes the attempt once its outputs are written.
func (a *attempt) stored() {
	d := a.d
	if a.stale() {
		a.release()
		return
	}
	a.cancelTimeout()
	a.st.finished = true
	if !d.fastSpans {
		// With the fast path on, storeOutputs published per-operation
		// spans instead of this aggregate.
		d.span(a.inv, a.id, a.replica, "store", a.phaseAt)
	}
	a.w.Release(a.c)
	a.onDone(false)
}

// recoverExecutor abandons a stranded attempt (timeout or node death) and
// re-issues the executor: re-placing the task if its worker is dead, paying
// the backoff delay, then dispatching the assignment through the
// mode-appropriate engine loop and a control message to the new worker.
func (d *Deployment) recoverExecutor(inv *invocation, id dag.NodeID, replica, reissue int, st *execState, attemptStart sim.Time, reason string, onDone func(failed bool)) {
	st.seq++ // invalidate any in-flight phase callbacks of the dead attempt
	if st.finished || inv.abandoned {
		return
	}
	if reissue >= d.opts.MaxReissues {
		st.finished = true
		inv.failed = true
		d.exhausted = append(d.exhausted, ErrReissuesExhausted{
			Workflow: d.bench.Name,
			Inv:      inv.id,
			Step:     d.g.Node(id).Name,
			Attempts: reissue,
		})
		d.pubStep(inv, id, obs.StepFailed)
		onDone(true)
		return
	}
	d.reissueCount++

	oldWorker := inv.place[id]
	if d.rt.Nodes[oldWorker].Failed() {
		d.replaceStranded(inv, oldWorker)
	}
	newWorker := inv.place[id]
	src, p := d.reissueSource(inv, id)

	backoff := d.backoffDelay(reissue + 1)
	dispatch := func() {
		if st.finished || inv.abandoned {
			return
		}
		p.process(func() {
			if st.finished || inv.abandoned {
				return
			}
			d.rt.Fabric.SendMsg(src, newWorker, assignMsgBytes, func() {
				if st.finished || inv.abandoned {
					return
				}
				d.pubRecovery(inv, id, replica, reason, oldWorker, newWorker, reissue+1, backoff, attemptStart)
				d.startAttempt(inv, id, replica, reissue+1, st, onDone)
			})
		})
	}
	if backoff > 0 {
		d.rt.Env.Schedule(backoff, dispatch)
	} else {
		dispatch()
	}
}

// backoffDelay computes the exponential backoff for an executor that has
// already failed `prior` (>= 1) times: BackoffBase doubled prior-1 times,
// capped at BackoffMax. Zero BackoffBase disables backoff entirely.
func (d *Deployment) backoffDelay(prior int) time.Duration {
	if d.opts.BackoffBase <= 0 {
		return 0
	}
	delay := d.opts.BackoffBase
	for i := 1; i < prior; i++ {
		delay *= 2
		if delay >= d.opts.BackoffMax {
			return d.opts.BackoffMax
		}
	}
	if delay > d.opts.BackoffMax {
		delay = d.opts.BackoffMax
	}
	return delay
}

// reissueSource picks the engine that re-dispatches a recovered task —
// where the trigger state for the task lives. MasterSP: always the central
// master engine. WorkerSP: the first alive predecessor's worker (the engine
// that held the State entry and originally triggered the task); the master
// steps in when the task has no predecessors or all their workers are dead.
func (d *Deployment) reissueSource(inv *invocation, id dag.NodeID) (string, *proc) {
	if d.opts.Mode == ModeMasterSP {
		return d.rt.Master, d.master
	}
	for _, pred := range d.g.Preds(id) {
		w := inv.place[pred]
		if n, ok := d.rt.Nodes[w]; ok && !n.Failed() {
			return w, d.workers[w]
		}
	}
	return d.rt.Master, d.master
}

// replaceStranded re-places every task of this invocation currently
// assigned to the dead worker onto surviving workers, cloning the
// invocation's placement first (copy-on-write) so the deployment's map —
// and other in-flight invocations — stay untouched.
func (d *Deployment) replaceStranded(inv *invocation, dead string) {
	if !inv.ownPlace {
		clone := make(map[dag.NodeID]string, len(inv.place))
		for k, v := range inv.place {
			clone[k] = v
		}
		inv.place = clone
		inv.ownPlace = true
	}
	for _, n := range d.g.Nodes() {
		if inv.place[n.ID] != dead {
			continue
		}
		nw := d.pickReplacement(inv, n.ID)
		if nw == "" {
			continue // no survivor; re-issues will keep failing until recovery
		}
		inv.place[n.ID] = nw
		d.replaceCount++
		d.pubStep(inv, n.ID, obs.StepReplaced)
	}
}

// SetAvoid installs a predicate excluding workers from fault re-placement
// even though they have not failed (yet) — typically nodes inside a
// scheduled NodeDown window (see faults.Injector.NodeDownAt), so a
// stranded task is not re-placed onto a node about to die. When every
// candidate is excluded the predicate is ignored: a doomed placement still
// beats none, and the next death re-places again.
func (d *Deployment) SetAvoid(fn func(worker string) bool) { d.avoid = fn }

// pickReplacement scores surviving workers for a stranded task by graph
// locality — how many of the task's neighbors (predecessors and successors)
// are placed there — echoing the Graph Scheduler's edge-weight objective.
// Ties break on sorted node order, keeping re-placement deterministic.
func (d *Deployment) pickReplacement(inv *invocation, id dag.NodeID) string {
	if best := d.pickReplacementFiltered(inv, id, d.avoid); best != "" {
		return best
	}
	if d.avoid == nil {
		return ""
	}
	// Every survivor sits inside a fault window; fall back to ignoring it.
	return d.pickReplacementFiltered(inv, id, nil)
}

func (d *Deployment) pickReplacementFiltered(inv *invocation, id dag.NodeID, avoid func(string) bool) string {
	best := ""
	bestScore := -1
	neighbors := append(append([]dag.NodeID{}, d.g.Preds(id)...), d.g.Succs(id)...)
	for _, cand := range d.nodeOrder {
		if cand == d.rt.Master {
			continue
		}
		n := d.rt.Nodes[cand]
		if n == nil || n.Failed() {
			continue
		}
		if avoid != nil && avoid(cand) {
			continue
		}
		score := 0
		for _, nb := range neighbors {
			if inv.place[nb] == cand {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}

// pubRecovery publishes a RecoveryEvent and, when the recovery window has
// width, a CompRecovery phase span covering it — [spanFrom, now] — so the
// critical-path walk attributes fault-recovery time contiguously instead of
// leaving an unattributed gap. spanFrom is the abandoned attempt's start,
// charging the whole wasted attempt to recovery.
func (d *Deployment) pubRecovery(inv *invocation, id dag.NodeID, replica int, reason, oldWorker, newWorker string, reissue int, backoff time.Duration, spanFrom sim.Time) {
	if !d.obs.Active() {
		return
	}
	now := d.rt.Env.Now()
	node := d.g.Node(id)
	d.obs.Publish(obs.RecoveryEvent{
		Workflow:  d.bench.Name,
		Inv:       inv.id,
		Node:      int(id),
		Name:      node.Name,
		Replica:   replica,
		Reason:    reason,
		OldWorker: oldWorker,
		NewWorker: newWorker,
		Reissue:   reissue,
		Backoff:   backoff,
		Start:     spanFrom,
		At:        now,
	})
	if now > spanFrom {
		d.obs.Publish(obs.PhaseEvent{
			Workflow: d.bench.Name,
			Inv:      inv.id,
			Node:     int(id),
			Name:     node.Name,
			Replica:  replica,
			Comp:     obs.CompRecovery,
			Worker:   newWorker,
			Start:    spanFrom,
			End:      now,
		})
	}
}
