package journal

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
