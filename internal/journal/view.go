package journal

import "sort"

// View is a read-only union over several engines' WALs — the handoff read
// surface. In a federation each engine appends to its own log, so an
// invocation that moved between owners has committed records scattered
// across logs; a successor claiming a shard replays against the union.
// Epoch fencing guarantees each (invocation, step) commits in at most one
// log, so the union is conflict-free; if logs ever disagree the earliest
// durable record wins.
type View struct {
	wals []*WAL
}

// NewView returns a view over the given logs. The view holds references,
// not copies: reads always see the logs' current contents.
func NewView(wals ...*WAL) *View {
	return &View{wals: wals}
}

// Committed reports whether (inv, step) is durable in any log.
func (v *View) Committed(inv int64, step int) bool {
	for _, w := range v.wals {
		if w.Committed(inv, step) {
			return true
		}
	}
	return false
}

// CommittedSteps returns the union of every log's durable records for one
// invocation, keyed by step. On a per-step conflict the earliest durable
// record wins. The map is a copy.
func (v *View) CommittedSteps(inv int64) map[int]Entry {
	out := map[int]Entry{}
	for _, w := range v.wals {
		for step, e := range w.CommittedSteps(inv) {
			if prev, ok := out[step]; !ok || e.At < prev.At {
				out[step] = e
			}
		}
	}
	return out
}

// InvocationIDs returns every invocation with at least one durable record
// in any log, ascending and deduplicated.
func (v *View) InvocationIDs() []int64 {
	seen := map[int64]bool{}
	var ids []int64
	for _, w := range v.wals {
		for _, id := range w.InvocationIDs() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats sums the cumulative counters across every log in the view.
func (v *View) Stats() Stats {
	var s Stats
	for _, w := range v.wals {
		ws := w.Stats()
		s.Appends += ws.Appends
		s.Committed += ws.Committed
		s.DupDrops += ws.DupDrops
		s.Syncs += ws.Syncs
		s.TornTail += ws.TornTail
		s.CrashDropped += ws.CrashDropped
		s.Crashes += ws.Crashes
		s.Fenced += ws.Fenced
	}
	return s
}
