package engine

import (
	"repro/internal/dag"
	"repro/internal/obs"
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
		s := d.master.reserve()
		d.master.run(s, func() {
			if inv.abandoned {
				return
			}
			d.mspComplete(inv, id, false, d.chainProc(nil, s))
		})
		return
	}
	if d.deadlineExceeded(inv) {
		// Dead on assignment: the master drains the node as a skip instead
		// of marshalling it — downstream cancels through the skip wave.
		d.failDeadline(inv, id, "trigger")
		d.publishChain(inv, from, int(id), pre)
		s := d.master.reserve()
		d.master.run(s, func() {
			if inv.abandoned {
				return
			}
			d.mspComplete(inv, id, true, d.chainProc(nil, s))
		})
		return
	}
	w := inv.place[id]
	// Marshalling the task into an assignment is itself a serialized slot
	// of the master's event loop.
	s := d.master.reserve()
	d.master.run(s, func() {
		if inv.abandoned {
			return
		}
		segs := d.chainProc(pre, s)
		sendAt := d.rt.Env.Now()
		d.rt.Fabric.SendMsg(d.rt.Master, w, d.opts.AssignMsgBytes, func() {
			arrived := d.chainTransfer(segs, sendAt, d.rt.Env.Now())
			// The worker-side executor proxy accepts the task...
			p := d.workers[w]
			s2 := p.reserve()
			p.run(s2, func() {
				if inv.abandoned {
					return
				}
				d.publishChain(inv, from, int(id), d.chainProc(arrived, s2))
				d.pubStep(inv, id, obs.StepTriggered)
				d.runTask(inv, id, func(failed bool) {
					// ...and returns the execution state to the master.
					backAt := d.rt.Env.Now()
					d.rt.Fabric.SendMsg(w, d.rt.Master, d.opts.StateMsgBytes, func() {
						back := d.chainTransfer(nil, backAt, d.rt.Env.Now())
						s3 := d.master.reserve()
						d.master.run(s3, func() {
							if inv.abandoned {
								return
							}
							d.mspComplete(inv, id, failed, d.chainProc(back, s3))
						})
					})
				})
			})
		})
	})
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
					succ := succ
					// The skip chain into succ closes with the current slot;
					// the forwarding slot opens its successors' chains.
					d.publishChain(inv, int(id), int(succ), pre)
					s := d.master.reserve()
					d.master.run(s, func() {
						if inv.abandoned {
							return
						}
						d.mspComplete(inv, succ, true, d.chainProc(nil, s))
					})
				}
				continue
			}
			d.mspAssign(inv, succ, int(id), pre)
		}
	}
}
