package faasflow

// This file is the public multi-tenancy surface: the per-tenant
// cluster-queue counters behind the gateway's /tenants endpoint.
// Tenant-attributed invocation is RunSpec.Invoke.Tenant (run.go). Admission-side tenancy (weights, per-tenant
// buckets) lives in overload.go; see docs/TENANCY.md for the model.

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
