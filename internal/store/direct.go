package store

import (
	"sort"

	"repro/internal/obs"
)

// This file implements the data-plane fast path's direct producer→consumer
// passing (DFlow-style): when the engine already knows where an edge's
// consumers run at producer completion, it pushes the output straight into
// each consumer worker's in-memory tier over the fabric instead of paying
// the Put-to-remote + Get round trip. Direct copies are working copies, not
// durable ones — the engine only takes this path when replication doesn't
// require a database copy, and a key whose every holder dies misses
// honestly (the durable layer's lost-input re-execution covers recovery).

// DirectStats aggregates direct-passing counters.
type DirectStats struct {
	// Pushes counts keys placed via PushDirect (one per key).
	Pushes int64
	// Copies counts per-worker copies placed, across all pushes.
	Copies int64
	// RemoteCopies counts copies that paid a cross-node fabric transfer
	// (the rest were producer-local memory writes).
	RemoteCopies int64
	// BytesPushed sums pushed key sizes (once per key, not per copy).
	BytesPushed int64
	// FallbackReads counts Gets served from a surviving non-local holder
	// (the reader re-placed after a fault, or shared a key with a sibling).
	FallbackReads int64
	// LostKeys counts direct keys whose every holder died.
	LostKeys int64
}

// DirectStats returns a snapshot of direct-passing counters.
func (h *Hybrid) DirectStats() DirectStats { return h.directStats }

// PushDirect places size bytes under key directly into each target worker's
// in-memory tier, paying a fabric transfer for every cross-node target. The
// placement is all-or-nothing and reported synchronously: false — with
// nothing placed — when the local tier is off, a target has no live memory
// store, or any target's quota cannot hold the value; the caller then falls
// back to Put. done fires once, after every copy (and its transfer) has
// completed. Targets must be distinct.
func (h *Hybrid) PushDirect(from, key string, size int64, targets []string, done func()) bool {
	if h.remoteOnly || len(targets) == 0 {
		return false
	}
	for _, t := range targets {
		m := h.mem[t]
		if m == nil || !h.nodeAlive(t) || m.Used()+size > m.Quota() {
			return false
		}
	}
	if done == nil {
		done = func() {}
	}
	start := h.remote.env.Now()
	remaining := 0
	complete := func() {
		remaining--
		if remaining == 0 {
			h.pubOp("push", key, from, obs.TierMemory, size, true, start)
			done()
		}
	}
	for _, t := range targets {
		m := h.mem[t]
		t := t
		remaining++
		h.directStats.Copies++
		if t == from {
			// Quota was verified above, so TryPut cannot fail here (the
			// simulation is single-threaded — nothing ran in between).
			m.TryPut(key, size, func() { complete() })
			continue
		}
		m.TryPut(key, size, nil)
		h.directStats.RemoteCopies++
		h.remote.fab.Send(from, t, size, func() { complete() })
	}
	h.directStats.Pushes++
	h.directStats.BytesPushed += size
	h.placements[key] = LocMemory
	h.homes[key] = targets[0]
	h.direct[key] = append([]string(nil), targets...)
	return true
}

// dropDirectWorker removes a dead worker from every direct key's holder set:
// keys with a surviving holder stay readable (reads fall back over the
// fabric), keys whose last holder died are lost — direct copies are working
// copies, so there is no repair pass; the durable layer re-executes the
// producer if the value is still needed.
func (h *Hybrid) dropDirectWorker(node string) {
	var hit []string
	for key, hold := range h.direct {
		for _, r := range hold {
			if r == node {
				hit = append(hit, key)
				break
			}
		}
	}
	sort.Strings(hit)
	for _, key := range hit {
		hold := h.direct[key][:0]
		for _, r := range h.direct[key] {
			if r != node {
				hold = append(hold, r)
			}
		}
		if len(hold) == 0 {
			delete(h.placements, key)
			delete(h.homes, key)
			delete(h.direct, key)
			h.directStats.LostKeys++
			continue
		}
		h.direct[key] = hold
		if h.homes[key] == node {
			h.homes[key] = hold[0]
		}
	}
}
