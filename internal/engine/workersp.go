package engine

import (
	"repro/internal/dag"
	"repro/internal/obs"
)

// This file implements the WorkerSP pattern (paper §3.1, Figure 6): each
// worker's engine maintains State (predecessors-done counters) for its
// local sub-graph and triggers functions locally. Completions propagate as
// state-update messages — an inner RPC when the successor lives on the
// same worker, a cross-worker TCP message otherwise. The master appears
// only twice per invocation: delivering the invocation to the source
// nodes' workers and collecting sink completions.
//
// Switch steps add a skip wave: a state update is either "done" or
// "skipped"; a node whose predecessors all completed but none for real is
// itself skipped — it runs nothing and forwards the skip.
//
// When a bus is attached, every causal hop threads a trigger-chain prefix
// (pre) forward: the completion proc's queue+schedule segments, then the
// fabric transfer, then the arrival proc's segments, published as one
// chain the instant the destination's trigger resolves.

func (d *Deployment) invokeWorkerSP(inv *invocation) {
	// The client's request lands at the master/gateway, which notifies the
	// worker hosting each source node of the new InvocationID.
	s := d.master.reserve()
	d.master.run(s, func() {
		if inv.abandoned {
			return
		}
		pre := d.chainProc(nil, s)
		for _, src := range d.sources {
			src := src
			w := inv.place[src]
			sendAt := d.rt.Env.Now()
			d.rt.Fabric.SendMsg(d.rt.Master, w, assignMsgBytes, func() {
				d.wspTrigger(inv, src, -1, d.chainTransfer(pre, sendAt, d.rt.Env.Now()))
			})
		}
	})
}

// wspTrigger runs on the engine of the worker hosting id, whose trigger
// condition is already satisfied. from/pre carry the trigger chain built
// up to the message arrival.
func (d *Deployment) wspTrigger(inv *invocation, id dag.NodeID, from int, pre []obs.Segment) {
	w := inv.place[id]
	p := d.workers[w]
	s := p.reserve()
	p.run(s, func() {
		if inv.started[id] || inv.abandoned {
			return
		}
		inv.started[id] = true
		d.publishChain(inv, from, int(id), d.chainProc(pre, s))
		if d.deadlineExceeded(inv) {
			// Dead on arrival: drain as a skip instead of running — no
			// container is acquired, and the skip wave cancels downstream.
			d.failDeadline(inv, id, "trigger")
			d.wspComplete(inv, id, true)
			return
		}
		d.pubStep(inv, id, obs.StepTriggered)
		d.runTask(inv, id, func(failed bool) { d.wspComplete(inv, id, failed) })
	})
}

// wspComplete records id's completion (or skip) on its local engine and
// propagates the state to every successor's engine.
func (d *Deployment) wspComplete(inv *invocation, id dag.NodeID, nodeSkipped bool) {
	w := inv.place[id]
	p := d.workers[w]
	s := p.reserve()
	p.run(s, func() {
		if inv.abandoned {
			return
		}
		if nodeSkipped {
			// The step resolved without running: any containers pre-warmed
			// for it will never be claimed.
			d.cancelPrewarms(inv, id)
			d.pubStep(inv, id, obs.StepSkipped)
		} else {
			d.pubStep(inv, id, obs.StepCompleted)
		}
		pre := d.chainProc(nil, s)
		if d.g.OutDegree(id) == 0 {
			// A sink: report completion to the master, which finishes the
			// invocation when all sinks have reported. Skipped sinks count
			// too — the workflow is done when nothing remains to run.
			sendAt := d.rt.Env.Now()
			d.rt.Fabric.SendMsg(w, d.rt.Master, stateMsgBytes, func() {
				segs := d.chainTransfer(pre, sendAt, d.rt.Env.Now())
				s2 := d.master.reserve()
				d.master.run(s2, func() {
					if inv.abandoned {
						return
					}
					inv.sinksLeft--
					if inv.sinksLeft == 0 {
						d.publishChain(inv, int(id), -1, d.chainProc(segs, s2))
						d.finishInvocation(inv)
					}
				})
			})
			return
		}
		skipped := d.skippedOutEdges(inv, id)
		for i := range d.g.OutDegree(id) {
			ei := d.g.OutEdge(id, i)
			succ := d.g.Edge(ei).To
			skip := nodeSkipped || skipped[ei]
			// Same worker → inner RPC (loopback); different worker →
			// cross-node TCP. The fabric models both through SendMsg.
			sendAt := d.rt.Env.Now()
			d.rt.Fabric.SendMsg(w, inv.place[succ], stateMsgBytes, func() {
				d.wspStateArrive(inv, succ, skip, int(id), d.chainTransfer(pre, sendAt, d.rt.Env.Now()))
			})
		}
	})
}

// wspStateArrive applies one predecessor update on the successor's engine
// and triggers it once PredecessorsDone reaches PredecessorsCount. When
// every predecessor completion was a skip, the node is skipped in turn.
func (d *Deployment) wspStateArrive(inv *invocation, succ dag.NodeID, skip bool, from int, pre []obs.Segment) {
	sw := inv.place[succ]
	p := d.workers[sw]
	s := p.reserve()
	p.run(s, func() {
		if inv.abandoned {
			return
		}
		inv.predsDone[succ]++
		if !skip {
			inv.realIn[succ]++
		}
		if inv.predsDone[succ] == d.g.InDegree(succ) && !inv.started[succ] {
			inv.started[succ] = true
			d.publishChain(inv, from, int(succ), d.chainProc(pre, s))
			if inv.realIn[succ] == 0 {
				// Entirely skipped: forward the skip without executing.
				d.wspComplete(inv, succ, true)
				return
			}
			if d.deadlineExceeded(inv) {
				d.failDeadline(inv, succ, "trigger")
				d.wspComplete(inv, succ, true)
				return
			}
			d.pubStep(inv, succ, obs.StepTriggered)
			d.runTask(inv, succ, func(failed bool) { d.wspComplete(inv, succ, failed) })
		}
	})
}
