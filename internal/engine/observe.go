package engine

import (
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the engine's side of the observability layer: publishing
// step/phase/invocation events and building the trigger-chain segments the
// critical-path analyzer consumes. Everything here is nil-safe and
// zero-cost when no bus is attached — chain builders return nil, publishes
// are a pointer check.
//
// The contiguity contract (see internal/obs): a trigger chain's segments
// abut. Engine-loop slots contribute a queue segment (enqueue → slot
// start, present only when the loop was busy) and a schedule segment (slot
// start → slot end); fabric hops contribute a transfer segment. Chains are
// built along the causal path and published exactly once, at the instant
// the destination's trigger condition resolves — so for every step there
// is one chain, from the predecessor whose completion actually triggered
// it (the binding predecessor).

// SetObserver attaches (or detaches, with nil) an observability bus. All
// engine events — step transitions, executor phases, invocation start and
// end, trigger chains — publish to it. Attach before invoking; chains in
// flight across an attach are dropped.
func (d *Deployment) SetObserver(b *obs.Bus) { d.obs = b }

// chainProc extends a trigger chain with one engine-loop slot: a queue
// segment when the loop was busy at enqueue, then the processing segment.
// The input slice is not aliased; branching call sites may reuse it.
func (d *Deployment) chainProc(segs []obs.Segment, s turn) []obs.Segment {
	if !d.obs.Active() {
		return nil
	}
	out := make([]obs.Segment, len(segs), len(segs)+2)
	copy(out, segs)
	if s.start > s.enq {
		out = append(out, obs.Segment{Comp: obs.CompQueue, Start: s.enq, End: s.start})
	}
	return append(out, obs.Segment{Comp: obs.CompSchedule, Start: s.start, End: s.done})
}

// chainTransfer extends a trigger chain with one fabric hop. Zero-latency
// (loopback) hops add nothing; contiguity is preserved either way.
func (d *Deployment) chainTransfer(segs []obs.Segment, start, end sim.Time) []obs.Segment {
	if !d.obs.Active() {
		return nil
	}
	out := make([]obs.Segment, len(segs), len(segs)+1)
	copy(out, segs)
	if end > start {
		out = append(out, obs.Segment{Comp: obs.CompTransfer, Start: start, End: end})
	}
	return out
}

// publishChain emits a completed trigger chain (from → to; -1 is the
// invocation boundary on either side).
func (d *Deployment) publishChain(inv *invocation, from, to int, segs []obs.Segment) {
	if len(segs) == 0 {
		return
	}
	d.obs.Publish(obs.TriggerChainEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		From:     from,
		To:       to,
		Segments: segs,
	})
}

// pubStep emits a step state transition at the current instant.
func (d *Deployment) pubStep(inv *invocation, id dag.NodeID, state obs.StepState) {
	if !d.obs.Active() {
		return
	}
	d.obs.Publish(obs.StepEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		Node:     int(id),
		Name:     d.g.Node(id).Name,
		Worker:   inv.place[id],
		State:    state,
		At:       d.rt.Env.Now(),
	})
}

// pubDeadline emits a deadline-abandonment event (id -1 = invocation
// level, e.g. admission-side cancellation before any step).
func (d *Deployment) pubDeadline(inv *invocation, id dag.NodeID, where string) {
	if !d.obs.Active() {
		return
	}
	node, name := -1, ""
	if id >= 0 {
		node, name = int(id), d.g.Node(id).Name
	}
	d.obs.Publish(obs.DeadlineEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		Node:     node,
		Name:     name,
		Where:    where,
		Deadline: inv.deadline,
		At:       d.rt.Env.Now(),
	})
}

// pubInvocation emits an invocation boundary event.
func (d *Deployment) pubInvocation(inv *invocation, end bool) {
	if !d.obs.Active() {
		return
	}
	d.obs.Publish(obs.InvocationEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		Mode:     d.opts.Mode.String(),
		Tenant:   inv.tenant,
		End:      end,
		Failed:   inv.failed,
		At:       d.rt.Env.Now(),
	})
}

// span publishes one executor phase — acquire, fetch, exec, store, or a
// fast-path/journal phase — as a PhaseEvent ending now.
func (d *Deployment) span(inv *invocation, id dag.NodeID, replica int, phase string, start sim.Time) {
	if !d.obs.Active() {
		return
	}
	d.obs.Publish(obs.PhaseEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		Node:     int(id),
		Name:     d.g.Node(id).Name,
		Replica:  replica,
		Comp:     phaseComp(phase),
		Worker:   inv.place[id],
		Start:    start,
		End:      d.rt.Env.Now(),
	})
}

// phaseComp maps a span's phase label to its attribution component.
func phaseComp(phase string) obs.Component {
	switch phase {
	case "acquire":
		return obs.CompAcquire
	case "fetch":
		return obs.CompFetch
	case "exec":
		return obs.CompExec
	case "direct":
		return obs.CompDirect
	case "prewarm":
		return obs.CompPrewarmOverlap
	case "memo":
		return obs.CompMemoHit
	default:
		// "store" and "commit" (the journal fsync window) both count as
		// making outputs durable.
		return obs.CompStore
	}
}
