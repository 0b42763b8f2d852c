package faasflow

import (
	"repro/internal/engine"
	"repro/internal/store"
)

// This file is the public surface of the data-plane fast path: direct
// producer→consumer output passing over the fabric, DAG-lookahead container
// pre-warming, and content-addressed output memoization. All three are off
// by default; see docs/DATAPLANE.md for the fallback and cancellation
// rules.

// FastPath selects which data-plane fast-path features a deployment runs
// with: DirectPassing pushes outputs straight to consumer workers when
// placement is known (falling back to the store hop otherwise), Prewarm
// acquires a step's containers while its last predecessor is still
// executing, and Memoize returns cached outputs for repeated
// (function, input) pairs. MemoLookup is the simulated cache-probe cost
// (default 200µs). Set it through DeployOptions.FastPath.
type FastPath = engine.FastPathOptions

// FastPathStats aggregates a deployment's fast-path counters: memo
// hits/misses, direct pushes and store fallbacks, and pre-warm
// issues/claims/cancellations.
type FastPathStats = engine.FastPathStats

// DirectPassingStats counts the store layer's direct-passing work: pushes,
// per-worker copies, bytes moved, fallback reads served by a surviving
// holder, and keys lost with every holder.
type DirectPassingStats = store.DirectStats

// FastPath reports the fast-path configuration the app was deployed with.
func (a *App) FastPath() FastPath { return a.opts.FastPath }

// FastPathStats reports the app's fast-path counters so far.
func (a *App) FastPathStats() FastPathStats {
	return a.dep.Engine.FastPathStatsSnapshot()
}

// DirectPassingStats reports the cluster store's direct-passing counters
// (cluster-wide: every deployment's pushes share the store).
func (c *Cluster) DirectPassingStats() DirectPassingStats {
	return c.tb.Runtime.Store.DirectStats()
}
