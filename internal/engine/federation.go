package engine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file is the engine's federation surface: the ownership fence a
// member engine consults before acting on an invocation, and the adoption
// API a successor uses to resume invocations claimed from a peer whose
// lease expired. The federation control plane itself lives in
// internal/federation; the engine only knows how to (a) stand down when an
// epoch check says its ownership is stale and (b) rebuild an invocation it
// never started from a committed-step map.

// FencedError is the typed rejection an ownership fence returns: the
// invocation's shard moved to another engine under Epoch, so the caller's
// view is stale and it must stand down.
type FencedError struct {
	Owner string // the engine that owns the shard now
	Epoch int64  // the shard's current fencing epoch
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("engine: fenced by epoch %d (shard owned by %s)", e.Epoch, e.Owner)
}

// SetFence installs the federation ownership check. engineID names this
// engine in the membership table (it labels FenceEvents); fn must return
// nil while this engine owns inv's shard and a *FencedError once it does
// not. The fence is consulted at dispatch, at executor phase boundaries,
// and — through cluster.AcquireOptions.Fence — at container grant time,
// so a stale owner's late work is rejected at every layer that could
// produce an externally visible effect.
func (d *Deployment) SetFence(engineID string, fn func(inv int64) error) {
	d.engineID = engineID
	d.fence = fn
}

// fenceCheck consults the fence at an execution boundary. A rejection
// abandons the invocation locally — the successor owns it now, so every
// other in-flight callback holding it bails exactly as after an engine
// crash — publishes a FenceEvent, and returns true.
func (d *Deployment) fenceCheck(inv *invocation, id dag.NodeID, where string) bool {
	if d.fence == nil || inv.abandoned {
		return false
	}
	err := d.fence(inv.id)
	if err == nil {
		return false
	}
	d.fencedSteps++
	inv.abandoned = true
	d.drainPrewarms(inv)
	if d.obs.Active() {
		var fe *FencedError
		var epoch int64
		if errors.As(err, &fe) {
			epoch = fe.Epoch
		}
		d.obs.Publish(obs.FenceEvent{
			Workflow: d.bench.Name,
			Engine:   d.engineID,
			Inv:      inv.id,
			Step:     int(id),
			Where:    where,
			Epoch:    epoch,
			At:       d.rt.Env.Now(),
		})
	}
	return true
}

// clusterFence adapts the engine fence to one invocation's container
// acquisitions (nil when the deployment is not federated).
func (d *Deployment) clusterFence(inv *invocation) func() error {
	if d.fence == nil {
		return nil
	}
	return func() error { return d.fence(inv.id) }
}

// AdoptSpec describes one invocation a successor engine adopts during a
// shard handoff: the routing-level facts the federation kept when it
// dispatched the invocation. Everything else — attempt counters, written
// store keys, the completed frontier — is rebuilt from the journal, because
// the old owner's in-memory state died with it.
type AdoptSpec struct {
	ID       int64
	Start    sim.Time
	Args     map[string]any
	Deadline sim.Time
	Tenant   string
	Done     func(Result)
}

// AdoptInvocation registers a claimed invocation on this engine and
// resumes it: committed steps (unioned across every federation member's
// journal by the caller) are skipped and their state forwarded, the
// uncommitted cut is re-dispatched, and the dead time is attributed to
// CompHandoff. Requires a journal; a non-durable engine cannot adopt.
func (d *Deployment) AdoptInvocation(spec AdoptSpec, committed map[int]journal.Entry) {
	if d.jr == nil {
		panic("engine: AdoptInvocation on a non-durable deployment")
	}
	var env expr.Env
	if spec.Args != nil {
		env = expr.Env(spec.Args)
	}
	old := &invocation{
		id:       spec.ID,
		version:  d.version,
		place:    d.place,
		start:    spec.Start,
		args:     env,
		deadline: spec.Deadline,
		tenant:   spec.Tenant,
		done:     spec.Done,
		stepSeq:  make([]int, d.g.Len()),
	}
	// Rebuild attempt counters and written store keys from the journal, in
	// sorted step order so finish-time cleanup stays deterministic.
	steps := make([]int, 0, len(committed))
	for step := range committed {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	for _, step := range steps {
		e := committed[step]
		if step < len(old.stepSeq) {
			old.stepSeq[step] = e.AttemptSeq
		}
		old.keys = append(old.keys, e.Outputs...)
	}
	if spec.ID >= d.nextInv {
		d.nextInv = spec.ID + 1
	}
	d.adopted++
	d.liveNow++
	if d.liveNow > d.peakLive {
		d.peakLive = d.liveNow
	}
	d.resumeInvocation(old, committed, obs.CompHandoff)
}

// DropInvocations releases claimed invocations from this engine: each is
// marked abandoned (in-flight callbacks bail at their next boundary) and
// removed from replay bookkeeping, so a later RestartEngine cannot resume
// invocations a successor now owns. Safe on a crashed engine; IDs with no
// live invocation are ignored.
func (d *Deployment) DropInvocations(ids []int64) {
	for _, id := range ids {
		inv := d.liveInvs[id]
		if inv == nil {
			continue
		}
		inv.abandoned = true
		d.drainPrewarms(inv)
		delete(d.liveInvs, id)
		d.liveNow--
	}
}
