package engine

import (
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file implements the MasterSP baseline (paper §2.2, Figure 3):
// HyperFlow-serverless. The central engine on the master node owns all
// workflow state. Every ready task is marshalled into an assignment
// message and sent to its worker; every completion returns to the master,
// which re-evaluates trigger conditions. Because the engine loop is
// serial, every one of these events queues behind the others — the
// scheduling overhead the paper measures in Figures 4 and 11.
//
// Switch skips resolve centrally: the master never dispatches a skipped
// node, it just forwards the skip through its state table.
//
// Trigger chains here span many more hops than WorkerSP's — completion
// transfer to the master, the master's completion slot, the assignment
// marshalling slot, the assignment transfer, and the worker's accept slot
// — which is exactly the extra schedule/transfer time the critical-path
// report attributes to this mode.

func (d *Deployment) invokeMasterSP(inv *invocation) {
	s := d.master.reserve()
	d.master.run(s, func() {
		if inv.abandoned {
			return
		}
		pre := d.chainProc(nil, s)
		for _, src := range d.sources {
			d.mspAssign(inv, src, -1, pre)
		}
	})
}

// mspAssign dispatches a ready node. It must be called from master engine
// context (inside a master.process callback). from/pre carry the trigger
// chain built up to (and including) the current master slot.
func (d *Deployment) mspAssign(inv *invocation, id dag.NodeID, from int, pre []obs.Segment) {
	if inv.started[id] || inv.abandoned {
		return
	}
	inv.started[id] = true
	if d.g.Node(id).Kind == dag.KindVirtual {
		// Virtual markers are bookkeeping the master resolves itself: the
		// chain into the marker closes here; the resolution slot opens the
		// chains toward its successors.
		d.publishChain(inv, from, int(id), pre)
		d.mspResolve(inv, id, false)
		return
	}
	if d.deadlineExceeded(inv) {
		// Dead on assignment: the master drains the node as a skip instead
		// of marshalling it — downstream cancels through the skip wave.
		d.failDeadline(inv, id, "trigger")
		d.publishChain(inv, from, int(id), pre)
		d.mspResolve(inv, id, true)
		return
	}
	// Marshalling the task into an assignment is itself a serialized slot
	// of the master's event loop.
	a := d.newAssignment(inv, id)
	a.from, a.segs, a.worker = from, pre, inv.place[id]
	a.slot = d.master.reserve()
	d.master.run(a.slot, a.marshalFn)
}

// mspResolve queues the master slot that resolves id without running it
// (a virtual marker, or a skip); the slot opens the chains toward id's
// successors.
func (d *Deployment) mspResolve(inv *invocation, id dag.NodeID, skipped bool) {
	a := d.newAssignment(inv, id)
	a.failed = skipped
	a.slot = d.master.reserve()
	d.master.run(a.slot, a.completeFn)
}

// assignment is one MasterSP step on its way through the master: the
// marshal slot, the assignment message to the worker, the worker proxy's
// accept slot, the task itself, the state message back, and the master's
// completion slot. Its methods are those phases, bound once when the
// assignment is first made, and it goes back on the deployment's free list
// when the chain ends — at the completion slot, or where it finds the
// invocation abandoned.
type assignment struct {
	d      *Deployment
	inv    *invocation
	id     dag.NodeID
	from   int
	worker string
	slot   turn          // the engine-loop turn under way
	segs   []obs.Segment // the trigger chain so far
	sentAt sim.Time      // when the message under way left
	failed bool

	marshalFn  func()
	arriveFn   func()
	acceptFn   func()
	taskDoneFn func(failed bool)
	backFn     func()
	completeFn func()
}

// newAssignment returns a finished assignment for reuse, or a new one with
// its phases bound to it.
func (d *Deployment) newAssignment(inv *invocation, id dag.NodeID) *assignment {
	var a *assignment
	if n := len(d.freeAssigns); n > 0 {
		a = d.freeAssigns[n-1]
		d.freeAssigns[n-1] = nil
		d.freeAssigns = d.freeAssigns[:n-1]
	} else {
		a = &assignment{d: d}
		a.marshalFn = a.marshal
		a.arriveFn = a.arrive
		a.acceptFn = a.accept
		a.taskDoneFn = a.taskDone
		a.backFn = a.back
		a.completeFn = a.complete
	}
	a.inv, a.id = inv, id
	return a
}

// release puts a finished assignment back on the free list; the next one
// taken from it starts with an empty trigger chain.
func (a *assignment) release() {
	a.inv, a.worker, a.segs = nil, "", nil
	a.d.freeAssigns = append(a.d.freeAssigns, a)
}

// marshal is the master's marshalling slot: the assignment leaves for the
// worker.
func (a *assignment) marshal() {
	d := a.d
	if a.inv.abandoned {
		a.release()
		return
	}
	a.segs = d.chainProc(a.segs, a.slot)
	a.sentAt = d.rt.Env.Now()
	d.rt.Fabric.SendMsg(d.rt.Master, a.worker, assignMsgBytes, a.arriveFn)
}

// arrive queues the worker-side executor proxy's accept slot.
func (a *assignment) arrive() {
	d := a.d
	a.segs = d.chainTransfer(a.segs, a.sentAt, d.rt.Env.Now())
	p := d.workers[a.worker]
	a.slot = p.reserve()
	p.run(a.slot, a.acceptFn)
}

// accept runs the task on the worker.
func (a *assignment) accept() {
	d, inv := a.d, a.inv
	if inv.abandoned {
		a.release()
		return
	}
	d.publishChain(inv, a.from, int(a.id), d.chainProc(a.segs, a.slot))
	d.pubStep(inv, a.id, obs.StepTriggered)
	d.runTask(inv, a.id, a.taskDoneFn)
}

// taskDone returns the execution state to the master.
func (a *assignment) taskDone(failed bool) {
	d := a.d
	a.failed = failed
	a.sentAt = d.rt.Env.Now()
	d.rt.Fabric.SendMsg(a.worker, d.rt.Master, stateMsgBytes, a.backFn)
}

// back queues the master's completion slot.
func (a *assignment) back() {
	d := a.d
	a.segs = d.chainTransfer(nil, a.sentAt, d.rt.Env.Now())
	a.slot = d.master.reserve()
	d.master.run(a.slot, a.completeFn)
}

// complete is the master's completion slot for the step.
func (a *assignment) complete() {
	if !a.inv.abandoned {
		a.d.mspComplete(a.inv, a.id, a.failed, a.d.chainProc(a.segs, a.slot))
	}
	a.release()
}

// mspComplete updates central state after id finished (or was skipped) and
// assigns any successors whose predecessors are all resolved. Master
// engine context; pre is the chain from id's completion instant through
// the current master slot.
func (d *Deployment) mspComplete(inv *invocation, id dag.NodeID, nodeSkipped bool, pre []obs.Segment) {
	if nodeSkipped {
		// The step resolved without running: any containers pre-warmed for
		// it will never be claimed.
		d.cancelPrewarms(inv, id)
		d.pubStep(inv, id, obs.StepSkipped)
	} else {
		d.pubStep(inv, id, obs.StepCompleted)
	}
	if d.g.OutDegree(id) == 0 {
		inv.sinksLeft--
		if inv.sinksLeft == 0 {
			d.publishChain(inv, int(id), -1, pre)
			d.finishInvocation(inv)
		}
		return
	}
	skipped := d.skippedOutEdges(inv, id)
	for i := range d.g.OutDegree(id) {
		ei := d.g.OutEdge(id, i)
		succ := d.g.Edge(ei).To
		skip := nodeSkipped || skipped[ei]
		inv.predsDone[succ]++
		if !skip {
			inv.realIn[succ]++
		}
		if inv.predsDone[succ] == d.g.InDegree(succ) {
			if inv.realIn[succ] == 0 {
				if !inv.started[succ] {
					inv.started[succ] = true
					// The skip chain into succ closes with the current slot;
					// the forwarding slot opens its successors' chains.
					d.publishChain(inv, int(id), int(succ), pre)
					d.mspResolve(inv, succ, true)
				}
				continue
			}
			d.mspAssign(inv, succ, int(id), pre)
		}
	}
}
