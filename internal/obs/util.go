package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// This file implements the utilization analyzer and the bottleneck
// attributor. The analyzer folds a TraceLog into per-resource occupancy
// time-series — per-node cores/memory/container/warm counts, per-link
// achieved-vs-capacity bandwidth, per-function queue depths — with
// busy-fraction and peak/p95 summaries. The attributor joins an
// invocation's critical-path segments (critpath.go) with resource
// saturation at the time of each segment, so a slow invocation reports
// "transfer on link:master:ingress at 97% occupancy" rather than just
// "transfer: 41ms".

// Timeline is a right-continuous step function of virtual time: values[i]
// holds on [times[i], times[i+1]); before times[0] the value is zero.
type Timeline struct {
	times  []sim.Time
	values []float64
}

// sample appends (t, v), overwriting a previous sample at the same instant
// (events at one instant: the last publish wins, matching gauge order).
func (tl *Timeline) sample(t sim.Time, v float64) {
	if n := len(tl.times); n > 0 && tl.times[n-1] == t {
		tl.values[n-1] = v
		return
	}
	tl.times = append(tl.times, t)
	tl.values = append(tl.values, v)
}

// ValueAt reports the step function's value at t.
func (tl *Timeline) ValueAt(t sim.Time) float64 {
	i := sort.Search(len(tl.times), func(k int) bool { return tl.times[k] > t })
	if i == 0 {
		return 0
	}
	return tl.values[i-1]
}

// spans calls f for every constant-valued span of [a, b), in order.
func (tl *Timeline) spans(a, b sim.Time, f func(from, to sim.Time, v float64)) {
	if b <= a {
		return
	}
	i := sort.Search(len(tl.times), func(k int) bool { return tl.times[k] > a })
	cur, v := a, 0.0
	if i > 0 {
		v = tl.values[i-1]
	}
	for ; i < len(tl.times) && tl.times[i] < b; i++ {
		if tl.times[i] > cur {
			f(cur, tl.times[i], v)
			cur = tl.times[i]
		}
		v = tl.values[i]
	}
	if b > cur {
		f(cur, b, v)
	}
}

// Integral reports ∫ value dt over [a, b] in value·seconds.
func (tl *Timeline) Integral(a, b sim.Time) float64 {
	var sum float64
	tl.spans(a, b, func(from, to sim.Time, v float64) {
		sum += v * (to - from).Duration().Seconds()
	})
	return sum
}

// Mean reports the time-weighted mean value over [a, b].
func (tl *Timeline) Mean(a, b sim.Time) float64 {
	if b <= a {
		return 0
	}
	return tl.Integral(a, b) / (b - a).Duration().Seconds()
}

// Max reports the largest value attained in [a, b].
func (tl *Timeline) Max(a, b sim.Time) float64 {
	var m float64
	tl.spans(a, b, func(_, _ sim.Time, v float64) {
		if v > m {
			m = v
		}
	})
	return m
}

// FracAbove reports the fraction of [a, b] during which value > threshold.
func (tl *Timeline) FracAbove(a, b sim.Time, threshold float64) float64 {
	if b <= a {
		return 0
	}
	var busy time.Duration
	tl.spans(a, b, func(from, to sim.Time, v float64) {
		if v > threshold {
			busy += (to - from).Duration()
		}
	})
	return busy.Seconds() / (b - a).Duration().Seconds()
}

// Quantile reports the time-weighted q-quantile (0 <= q <= 1) of the value
// over [a, b]: the smallest v such that the value is <= v for at least
// fraction q of the window.
func (tl *Timeline) Quantile(a, b sim.Time, q float64) float64 {
	if b <= a {
		return 0
	}
	type wv struct {
		v float64
		w time.Duration
	}
	var parts []wv
	var total time.Duration
	tl.spans(a, b, func(from, to sim.Time, v float64) {
		parts = append(parts, wv{v, (to - from).Duration()})
		total += (to - from).Duration()
	})
	if total == 0 {
		return 0
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].v < parts[j].v })
	target := time.Duration(q * float64(total))
	var cum time.Duration
	for _, p := range parts {
		cum += p.w
		if cum >= target {
			return p.v
		}
	}
	return parts[len(parts)-1].v
}

// occupancy walks [a, b] with the series and its capacity timeline merged
// and reports the time-weighted mean and the peak of min(1, value/cap).
// With a nil capacity the raw value is used (uncapacitated resources like
// queue depths report mean depth, not a fraction).
func occupancy(series, capacity *Timeline, a, b sim.Time) (mean, peak float64) {
	if b <= a {
		return 0, 0
	}
	var sum float64
	series.spans(a, b, func(from, to sim.Time, v float64) {
		if capacity == nil {
			sum += v * (to - from).Duration().Seconds()
			if v > peak {
				peak = v
			}
			return
		}
		capacity.spans(from, to, func(cf, ct sim.Time, cap float64) {
			occ := 0.0
			if cap > 0 {
				occ = v / cap
				if occ > 1 {
					occ = 1
				}
			}
			sum += occ * (ct - cf).Duration().Seconds()
			if occ > peak {
				peak = occ
			}
		})
	})
	return sum / (b - a).Duration().Seconds(), peak
}

// Resource kinds.
const (
	KindCPU        = "cpu"        // running tasks per node; capacity = cores
	KindMem        = "mem"        // container-held bytes per node; capacity = DRAM
	KindContainers = "containers" // live containers per node; capacity = DRAM/containerMem
	KindWarm       = "warm"       // idle warm containers per node (uncapacitated)
	KindLink       = "link"       // achieved bytes/sec per node link; capacity = link Bps
	KindQueue      = "queue"      // waiting acquisitions per (node, function)
)

// Resource is one occupancy time-series with its (possibly time-varying)
// capacity.
type Resource struct {
	Name     string // e.g. "node:w0:cpu", "link:master:ingress", "queue:w0:split"
	Kind     string
	Node     string
	Series   *Timeline
	Capacity *Timeline // nil for uncapacitated kinds
	// Bytes is the exact byte total that crossed a link resource (bulk
	// flows plus control messages); zero for other kinds.
	Bytes int64
	// FlowBytes is the bulk-flow portion of Bytes. Control messages are
	// impulses with no modeled duration, so the rate Series integrates to
	// exactly FlowBytes, not Bytes.
	FlowBytes int64
}

// Utilization is the folded per-resource view of one run's event log.
type Utilization struct {
	Start, End sim.Time
	Resources  map[string]*Resource
	// InFlightFlows counts bulk transfers whose start was observed but not
	// their completion — their bytes are absent from link timelines.
	InFlightFlows int
}

// Names lists the resource names, sorted.
func (u *Utilization) Names() []string {
	out := make([]string, 0, len(u.Resources))
	for name := range u.Resources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResourceSummary condenses one resource's timeline for reports and
// snapshots. Mean/Peak/P95 are in native units (tasks, bytes, bytes/sec,
// containers, queue depth); MeanOcc/PeakOcc normalize by capacity into
// [0, 1] and are zero for uncapacitated kinds.
type ResourceSummary struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Node     string  `json:"node"`
	Capacity float64 `json:"capacity,omitempty"` // capacity at end of run
	Mean     float64 `json:"mean"`
	Peak     float64 `json:"peak"`
	P95      float64 `json:"p95"`
	BusyFrac float64 `json:"busyFrac"`
	MeanOcc  float64 `json:"meanOcc,omitempty"`
	PeakOcc  float64 `json:"peakOcc,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
}

// Summarize condenses the resource over the utilization window.
func (u *Utilization) Summarize(r *Resource) ResourceSummary {
	s := ResourceSummary{
		Name:     r.Name,
		Kind:     r.Kind,
		Node:     r.Node,
		Mean:     r.Series.Mean(u.Start, u.End),
		Peak:     r.Series.Max(u.Start, u.End),
		P95:      r.Series.Quantile(u.Start, u.End, 0.95),
		BusyFrac: r.Series.FracAbove(u.Start, u.End, 0),
		Bytes:    r.Bytes,
	}
	if r.Capacity != nil {
		s.Capacity = r.Capacity.ValueAt(u.End)
		s.MeanOcc, s.PeakOcc = occupancy(r.Series, r.Capacity, u.Start, u.End)
	}
	return s
}

// Summaries condenses every resource, sorted by name.
func (u *Utilization) Summaries() []ResourceSummary {
	out := make([]ResourceSummary, 0, len(u.Resources))
	for _, name := range u.Names() {
		out = append(out, u.Summarize(u.Resources[name]))
	}
	return out
}

// utilBuilder accumulates the single pass over the event log.
type utilBuilder struct {
	u          *Utilization
	warmByNode map[string]map[string]int // node -> fn -> warm count
	flowStarts map[int64]FlowEvent
	linkDeltas map[string]map[sim.Time]float64 // link name -> rate deltas
	haveWindow bool
}

func (b *utilBuilder) window(t sim.Time) {
	if !b.haveWindow {
		b.u.Start, b.u.End, b.haveWindow = t, t, true
		return
	}
	if t < b.u.Start {
		b.u.Start = t
	}
	if t > b.u.End {
		b.u.End = t
	}
}

func (b *utilBuilder) resource(name, kind, node string) *Resource {
	r := b.u.Resources[name]
	if r == nil {
		r = &Resource{Name: name, Kind: kind, Node: node, Series: &Timeline{}}
		b.u.Resources[name] = r
	}
	return r
}

// capacitated fetches a resource and ensures it has a capacity timeline.
func (b *utilBuilder) capacitated(name, kind, node string) *Resource {
	r := b.resource(name, kind, node)
	if r.Capacity == nil {
		r.Capacity = &Timeline{}
	}
	return r
}

func (b *utilBuilder) linkBytes(node, dir string, bytes int64) *Resource {
	r := b.capacitated("link:"+node+":"+dir, KindLink, node)
	r.Bytes += bytes
	return r
}

func (b *utilBuilder) linkRate(node, dir string, from, to sim.Time, rate float64) {
	name := "link:" + node + ":" + dir
	d := b.linkDeltas[name]
	if d == nil {
		d = map[sim.Time]float64{}
		b.linkDeltas[name] = d
	}
	d[from] += rate
	d[to] -= rate
}

// ComputeUtilization folds the event log into per-resource occupancy
// time-series. The window [Start, End] spans the earliest to the latest
// event instant observed.
func ComputeUtilization(l *TraceLog) *Utilization {
	b := &utilBuilder{
		u:          &Utilization{Resources: map[string]*Resource{}},
		warmByNode: map[string]map[string]int{},
		flowStarts: map[int64]FlowEvent{},
		linkDeltas: map[string]map[sim.Time]float64{},
	}
	for _, ev := range l.Events() {
		b.window(ev.When())
		switch e := ev.(type) {
		case NodeCapacityEvent:
			b.capacitated("node:"+e.Node+":cpu", KindCPU, e.Node).Capacity.sample(e.At, float64(e.Cores))
			b.capacitated("node:"+e.Node+":mem", KindMem, e.Node).Capacity.sample(e.At, float64(e.MemBytes))
			if e.ContainerMem > 0 {
				b.capacitated("node:"+e.Node+":containers", KindContainers, e.Node).
					Capacity.sample(e.At, float64(e.MemBytes/e.ContainerMem))
			}
		case LinkCapacityEvent:
			b.capacitated("link:"+e.Node+":egress", KindLink, e.Node).Capacity.sample(e.At, e.EgressBps)
			b.capacitated("link:"+e.Node+":ingress", KindLink, e.Node).Capacity.sample(e.At, e.IngressBps)
		case TaskEvent:
			b.resource("node:"+e.Node+":cpu", KindCPU, e.Node).Series.sample(e.At, float64(e.Running))
		case ContainerEvent:
			b.resource("node:"+e.Node+":mem", KindMem, e.Node).Series.sample(e.At, float64(e.MemUsed))
			b.resource("node:"+e.Node+":containers", KindContainers, e.Node).Series.sample(e.At, float64(e.Containers))
			warm := b.warmByNode[e.Node]
			if warm == nil {
				warm = map[string]int{}
				b.warmByNode[e.Node] = warm
			}
			warm[e.Function] = e.Warm
			total := 0
			for _, w := range warm {
				total += w
			}
			b.resource("node:"+e.Node+":warm", KindWarm, e.Node).Series.sample(e.At, float64(total))
			b.resource("queue:"+e.Node+":"+e.Function, KindQueue, e.Node).Series.sample(e.At, float64(e.Queued))
		case FlowEvent:
			if !e.Done {
				b.flowStarts[e.ID] = e
				continue
			}
			start, ok := b.flowStarts[e.ID]
			if !ok {
				continue // completion of a flow started before observation
			}
			delete(b.flowStarts, e.ID)
			b.linkBytes(e.From, "egress", e.Bytes).FlowBytes += e.Bytes
			b.linkBytes(e.To, "ingress", e.Bytes).FlowBytes += e.Bytes
			if dur := (e.At - start.At).Duration().Seconds(); dur > 0 {
				// Spread the flow's bytes uniformly over its lifetime: the
				// integral of this mean rate over [start, end] is exactly
				// Bytes, so per-link integrals reconcile with the fabric's
				// byte counters.
				rate := float64(e.Bytes) / dur
				b.linkRate(e.From, "egress", start.At, e.At, rate)
				b.linkRate(e.To, "ingress", start.At, e.At, rate)
			}
		case MsgEvent:
			// Control messages are impulses: they count toward link bytes
			// but are too short to model as occupancy.
			b.linkBytes(e.From, "egress", e.Bytes)
			b.linkBytes(e.To, "ingress", e.Bytes)
		}
	}
	b.u.InFlightFlows = len(b.flowStarts)
	// Convert accumulated rate deltas into link timelines.
	for name, deltas := range b.linkDeltas {
		times := make([]sim.Time, 0, len(deltas))
		var maxAbs float64
		for t, d := range deltas {
			times = append(times, t)
			if d < 0 {
				d = -d
			}
			if d > maxAbs {
				maxAbs = d
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		r := b.u.Resources[name]
		// Prefix-summing +rate/-rate pairs leaves float cancellation residue
		// far above machine epsilon (the rates are ~1e7); snap levels within
		// a scaled epsilon to exactly zero so idle periods read as idle.
		eps := 1e-9 * maxAbs
		var level float64
		for _, t := range times {
			level += deltas[t]
			if level < eps && level > -eps {
				level = 0
			}
			r.Series.sample(t, level)
		}
	}
	return b.u
}

// ---------------------------------------------------------------------------
// Bottleneck attribution.

// Hotspot ties one critical-path component to the most saturated resource
// underneath it.
type Hotspot struct {
	Comp     Component     `json:"comp"`
	Duration time.Duration `json:"durationNs"`
	Share    float64       `json:"share"` // fraction of end-to-end latency
	// Resource names the most saturated matching resource during the
	// component's critical-path windows; empty when no resource series
	// applies (engine-loop components).
	Resource string `json:"resource,omitempty"`
	// Occupancy is the Resource's duration-weighted mean occupancy over
	// those windows — a [0, 1] fraction for capacitated resources, a mean
	// depth for queues.
	Occupancy float64 `json:"occupancy,omitempty"`
}

// String renders "transfer 41ms (46.0%) on link:master:ingress at 97% occupancy".
func (h Hotspot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v (%.1f%%)", h.Comp, h.Duration, 100*h.Share)
	if h.Resource != "" {
		if strings.HasPrefix(h.Resource, "queue:") {
			fmt.Fprintf(&sb, " on %s at mean depth %.1f", h.Resource, h.Occupancy)
		} else {
			fmt.Fprintf(&sb, " on %s at %.0f%% occupancy", h.Resource, 100*h.Occupancy)
		}
	}
	return sb.String()
}

// InvBottlenecks is one invocation's bottleneck attribution.
type InvBottlenecks struct {
	Workflow string        `json:"workflow"`
	Inv      int64         `json:"inv"`
	Mode     string        `json:"mode"`
	Total    time.Duration `json:"totalNs"`
	// Hotspots holds one entry per component present on the critical path,
	// descending by duration.
	Hotspots []Hotspot `json:"hotspots"`
}

// hottest picks, among resources of the given kinds (optionally restricted
// to a node set), the one with the highest duration-weighted mean
// occupancy over the windows. Ties break by name for determinism.
func (u *Utilization) hottest(kinds []string, nodes map[string]bool, windows []PathSegment) (string, float64) {
	kindSet := map[string]bool{}
	for _, k := range kinds {
		kindSet[k] = true
	}
	var total time.Duration
	for _, w := range windows {
		total += w.Duration()
	}
	if total == 0 {
		return "", 0
	}
	bestName, bestOcc := "", -1.0
	for _, name := range u.Names() {
		r := u.Resources[name]
		if !kindSet[r.Kind] || (len(nodes) > 0 && !nodes[r.Node]) {
			continue
		}
		var weighted float64
		for _, w := range windows {
			occ, _ := occupancy(r.Series, r.Capacity, w.Start, w.End)
			weighted += occ * w.Duration().Seconds()
		}
		occ := weighted / total.Seconds()
		if occ > bestOcc {
			bestName, bestOcc = name, occ
		}
	}
	if bestOcc < 0 {
		return "", 0
	}
	return bestName, bestOcc
}

// componentResource maps one component's critical-path windows to its most
// saturated underlying resource.
func (u *Utilization) componentResource(comp Component, windows []PathSegment) (string, float64) {
	nodes := map[string]bool{}
	for _, w := range windows {
		if w.Worker != "" {
			nodes[w.Worker] = true
		}
	}
	switch comp {
	case CompExec:
		return u.hottest([]string{KindCPU}, nodes, windows)
	case CompFetch, CompStore, CompTransfer, CompDirect:
		// Data movement saturates links; the phase's worker is one endpoint
		// but the bottleneck is usually the other (storage), so search all.
		return u.hottest([]string{KindLink}, nil, windows)
	case CompAcquire, CompPrewarmOverlap:
		if name, occ := u.hottest([]string{KindQueue}, nodes, windows); occ > 0 {
			return name, occ
		}
		return u.hottest([]string{KindContainers}, nodes, windows)
	default:
		// CompQueue / CompSchedule / CompMemoHit: engine-loop or cache time,
		// no substrate resource.
		return "", 0
	}
}

// AttributeBottlenecks joins every completed invocation's critical path
// with the resource saturation of the same log.
func AttributeBottlenecks(l *TraceLog) []*InvBottlenecks {
	u := ComputeUtilization(l)
	bds := AnalyzeAll(l)
	out := make([]*InvBottlenecks, 0, len(bds))
	for _, bd := range bds {
		ib := &InvBottlenecks{Workflow: bd.Workflow, Inv: bd.Inv, Mode: bd.Mode, Total: bd.Total}
		byComp := map[Component][]PathSegment{}
		for _, seg := range bd.Segments {
			byComp[seg.Comp] = append(byComp[seg.Comp], seg)
		}
		for _, comp := range Components() {
			windows := byComp[comp]
			if len(windows) == 0 {
				continue
			}
			h := Hotspot{Comp: comp, Duration: bd.ByComponent[comp]}
			if bd.Total > 0 {
				h.Share = float64(h.Duration) / float64(bd.Total)
			}
			h.Resource, h.Occupancy = u.componentResource(comp, windows)
			ib.Hotspots = append(ib.Hotspots, h)
		}
		sort.SliceStable(ib.Hotspots, func(i, j int) bool {
			return ib.Hotspots[i].Duration > ib.Hotspots[j].Duration
		})
		out = append(out, ib)
	}
	return out
}

// BottleneckSummary aggregates bottleneck attributions per workflow/mode.
type BottleneckSummary struct {
	Workflow  string        `json:"workflow"`
	Mode      string        `json:"mode"`
	Count     int           `json:"count"`
	MeanTotal time.Duration `json:"meanTotalNs"`
	// Hotspots holds per-component mean durations (descending) with the
	// modal resource — the resource most often responsible, weighted by
	// attributed time — and its duration-weighted mean occupancy.
	Hotspots []Hotspot `json:"hotspots"`
}

// String renders the summary as an aligned per-component table.
func (s BottleneckSummary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s: %d invocation(s), mean end-to-end %v\n",
		s.Workflow, s.Mode, s.Count, s.MeanTotal)
	for _, h := range s.Hotspots {
		res := ""
		if h.Resource != "" {
			if strings.HasPrefix(h.Resource, "queue:") {
				res = fmt.Sprintf("  %s at mean depth %.1f", h.Resource, h.Occupancy)
			} else {
				res = fmt.Sprintf("  %s at %.0f%% occupancy", h.Resource, 100*h.Occupancy)
			}
		}
		fmt.Fprintf(&sb, "  %-9s %12v  %5.1f%%%s\n", h.Comp, h.Duration, 100*h.Share, res)
	}
	return sb.String()
}

// SummarizeBottlenecks groups attributions by (workflow, mode) and
// averages them, sorted by workflow then mode.
func SummarizeBottlenecks(ibs []*InvBottlenecks) []BottleneckSummary {
	type key struct{ wf, mode string }
	type agg struct {
		count int
		total time.Duration
		dur   map[Component]time.Duration
		// resDur accumulates, per component and resource, the attributed
		// time and occupancy·time for modal-resource selection.
		resDur map[Component]map[string]time.Duration
		resOcc map[Component]map[string]float64
	}
	groups := map[key]*agg{}
	var order []key
	for _, ib := range ibs {
		k := key{ib.Workflow, ib.Mode}
		g := groups[k]
		if g == nil {
			g = &agg{
				dur:    map[Component]time.Duration{},
				resDur: map[Component]map[string]time.Duration{},
				resOcc: map[Component]map[string]float64{},
			}
			groups[k] = g
			order = append(order, k)
		}
		g.count++
		g.total += ib.Total
		for _, h := range ib.Hotspots {
			g.dur[h.Comp] += h.Duration
			if h.Resource == "" {
				continue
			}
			if g.resDur[h.Comp] == nil {
				g.resDur[h.Comp] = map[string]time.Duration{}
				g.resOcc[h.Comp] = map[string]float64{}
			}
			g.resDur[h.Comp][h.Resource] += h.Duration
			g.resOcc[h.Comp][h.Resource] += h.Occupancy * h.Duration.Seconds()
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].wf != order[j].wf {
			return order[i].wf < order[j].wf
		}
		return order[i].mode < order[j].mode
	})
	out := make([]BottleneckSummary, 0, len(order))
	for _, k := range order {
		g := groups[k]
		s := BottleneckSummary{
			Workflow:  k.wf,
			Mode:      k.mode,
			Count:     g.count,
			MeanTotal: g.total / time.Duration(g.count),
		}
		for _, comp := range Components() {
			d, ok := g.dur[comp]
			if !ok {
				continue
			}
			h := Hotspot{Comp: comp, Duration: d / time.Duration(g.count)}
			if s.MeanTotal > 0 {
				h.Share = float64(h.Duration) / float64(s.MeanTotal)
			}
			// Modal resource: the one carrying the most attributed time.
			var names []string
			for name := range g.resDur[comp] {
				names = append(names, name)
			}
			sort.Strings(names)
			var best time.Duration = -1
			for _, name := range names {
				if rd := g.resDur[comp][name]; rd > best {
					best = rd
					h.Resource = name
					if rd > 0 {
						h.Occupancy = g.resOcc[comp][name] / rd.Seconds()
					}
				}
			}
			s.Hotspots = append(s.Hotspots, h)
		}
		sort.SliceStable(s.Hotspots, func(i, j int) bool {
			return s.Hotspots[i].Duration > s.Hotspots[j].Duration
		})
		out = append(out, s)
	}
	return out
}
