package faasflow

import (
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the public multi-tenancy surface: tenant-attributed
// invocation, and the per-tenant cluster-queue counters behind the
// gateway's /tenants endpoint. Admission-side tenancy (weights, per-tenant
// buckets) lives in overload.go; see docs/TENANCY.md for the model.

// InvokeOptions tunes a batch of invocations sent through RunOpts.
type InvokeOptions struct {
	// Args are the invocation input arguments; switch steps evaluate their
	// branch conditions against them.
	Args map[string]any
	// Deadline bounds each invocation end to end (relative; 0 = none).
	Deadline time.Duration
	// Tenant attributes every invocation to a tenant: container acquisition
	// queues weighted-fair against other tenants, and journal records and
	// invocation events carry the label. "" = untenanted.
	Tenant string
}

// RunOpts sends n closed-loop invocations with per-invocation options and
// returns latency statistics. Unlike RunAdmitted it does not consult the
// admission controller — pair it with Cluster.AdmitTenant when front-door
// accounting matters.
func (a *App) RunOpts(opts InvokeOptions, n int) Stats {
	a.singleEngine("RunOpts")
	rec := &metrics.Recorder{}
	remaining := n
	var next func()
	next = func() {
		if remaining == 0 {
			return
		}
		remaining--
		var dl sim.Time
		if opts.Deadline > 0 {
			dl = a.cluster.tb.Env.Now() + sim.Time(opts.Deadline)
		}
		a.dep.Engine.InvokeOpts(engine.InvokeOptions{
			Args:     opts.Args,
			Deadline: dl,
			Tenant:   opts.Tenant,
		}, func(r engine.Result) {
			rec.Add(r.Latency())
			next()
		})
	}
	next()
	a.cluster.tb.Env.Run()
	return statsOf(rec)
}

// TenantQueueStats is one tenant's Acquire-queue counters on one worker
// node: how often its requests queued, were granted containers, or were
// shed, deadline-aborted, or fenced.
type TenantQueueStats struct {
	Node           string `json:"node"`
	Tenant         string `json:"tenant"`
	QueuedWaits    int64  `json:"queuedWaits"`
	Grants         int64  `json:"grants"`
	Shed           int64  `json:"shed"`
	DeadlineAborts int64  `json:"deadlineAborts"`
	FencedAcquires int64  `json:"fencedAcquires"`
}

// TenantQueueStats reports per-tenant Acquire-queue counters across every
// worker node, in (node, tenant) order. Only tenants that sent
// tenant-labelled requests appear.
func (c *Cluster) TenantQueueStats() []TenantQueueStats {
	var out []TenantQueueStats
	for _, id := range c.tb.Workers {
		n := c.tb.Runtime.Nodes[id]
		for _, st := range n.TenantStats() {
			out = append(out, TenantQueueStats{
				Node:           id,
				Tenant:         st.Tenant,
				QueuedWaits:    st.QueuedWaits,
				Grants:         st.Grants,
				Shed:           st.Shed,
				DeadlineAborts: st.DeadlineAborts,
				FencedAcquires: st.FencedAcquires,
			})
		}
	}
	return out
}
