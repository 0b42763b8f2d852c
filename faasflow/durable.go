package faasflow

import (
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/store"
)

// This file is the public durable-execution surface: deploy a workflow
// with a write-ahead journal so an engine crash recovers by replay instead
// of restart-from-scratch, and turn on k-way replication of FaaStore
// outputs so a node death recovers by fetching a surviving replica instead
// of re-executing producers.

// Durability tunes the durable-execution layer (DeployOptions.Durability).
// The zero value enables journaling with default I/O costs and leaves
// replication off.
type Durability struct {
	// SyncLatency is the journal's per-fsync cost (default 2ms).
	SyncLatency time.Duration
	// BatchWindow is the journal's group-commit window: appends arriving
	// within it share one fsync (default 500µs).
	BatchWindow time.Duration
	// ReplicationFactor writes every FaaStore output to this many worker
	// shards, chosen by graph locality (consumers first, then the
	// producer). 0 or 1 keeps the single-copy behaviour. Replication is a
	// cluster-wide store property; the factor applies to every durable app
	// on the cluster. With ReplicationFactor > 1, FaaStore outputs survive
	// node deaths on replica shards.
	ReplicationFactor int
	// RepairInterval is the delay before a dead shard's surviving keys are
	// re-replicated back up to the factor (default 10ms).
	RepairInterval time.Duration
}

// Durable reports whether the app was deployed with a journal.
func (a *App) Durable() bool { return a.dep.Engine.Journal() != nil }

// DurableStats aggregates an app's durable-execution counters: engine
// crashes, replay skips, re-dispatches, lost-input re-executions, and the
// journal's own append/commit/dup-drop counts.
type DurableStats = engine.DurableStats

// DurableStats reports the app's durable-execution counters so far.
func (a *App) DurableStats() DurableStats {
	return a.dep.Engine.DurableStatsSnapshot()
}

// JournalEntry is one durable step-commit record: workflow, invocation,
// step, attempt sequence, output keys, and the instant it became durable.
type JournalEntry = journal.Entry

// JournalEntries returns the app's committed journal records in commit
// order, or nil when the app is not durable.
func (a *App) JournalEntries() []JournalEntry {
	jr := a.dep.Engine.Journal()
	if jr == nil {
		return nil
	}
	return jr.Entries()
}

// JournalStats is the journal's cumulative counter set.
type JournalStats = journal.Stats

// ReplicationStats counts the replicated store's recovery work: cross-node
// replica writes, fallback reads served by a surviving replica, background
// re-replications, and keys lost with every copy.
type ReplicationStats = store.ReplStats

// ReplicationStats reports the cluster store's replication counters.
func (c *Cluster) ReplicationStats() ReplicationStats {
	return c.tb.Runtime.Store.ReplStats()
}
