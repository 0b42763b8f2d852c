// Package network simulates a cluster network as a max-min fair-share
// bandwidth fabric.
//
// Every node owns two capacity resources: an egress link and an ingress
// link. A transfer from A to B is a fluid flow constrained by both A's
// egress and B's ingress; concurrent flows share each link with max-min
// fairness (the standard progressive-filling model of TCP flows meeting at
// a bottleneck). This reproduces the contention behaviour the FaaSFlow
// paper studies: when many parallel functions push intermediate data toward
// one storage node, the storage node's link is the bottleneck and every
// flow slows down proportionally.
//
// Small control messages (task assignments, state-transfer packets) use
// SendMsg, which pays per-message latency plus serialization at link speed
// but is not modeled as a persistent flow — these payloads are a few
// hundred bytes and would otherwise drown the solver in events.
package network

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Bandwidth is a link capacity in bytes per second.
type Bandwidth float64

// MBps constructs a Bandwidth from megabytes per second (the unit the paper
// uses, e.g. the 25–100 MB/s wondershaper sweeps).
func MBps(v float64) Bandwidth { return Bandwidth(v * 1e6) }

// Fabric-wide latencies, representative of a single-datacenter cluster
// (sub-millisecond RTT) like the paper's ECS testbed.
const (
	// MsgLatency is the one-way propagation plus protocol overhead paid by
	// every message and by every flow before its first byte arrives.
	MsgLatency = 300 * time.Microsecond
	// localLatency is the cost of a same-node RPC (loopback, no fabric).
	localLatency = 30 * time.Microsecond
)

// link is one direction of a node's access link.
type link struct {
	capacity Bandwidth
	factor   float64 // fault multiplier: 1 healthy, (0,1) degraded, 0 partitioned
	scale    float64 // what-if multiplier: counterfactual bandwidth scaling (default 1)

	// Solver scratch, valid only inside Fabric.resolve.
	unfixed int     // flows crossing the link whose rate is not yet fixed
	used    float64 // capacity taken by the flows already fixed
	solving bool    // the link is in the current solve's link list
}

// effCap is the capacity currently usable, after fault degradation and any
// counterfactual scaling.
func (l *link) effCap() float64 { return float64(l.capacity) * l.factor * l.scale }

type node struct {
	id      string
	egress  *link
	ingress *link
}

// Flow is an in-progress bulk transfer.
type Flow struct {
	from, to  string
	size      int64
	remaining float64 // bytes
	rate      float64 // bytes/sec, set by the solver
	updatedAt sim.Time
	done      func()
	src, dst  *link
	// ev is the flow's one owned event, bound to fire when the flow is
	// made: it joins the flow after the propagation latency, then every
	// solve re-keys it to the flow's finish instant.
	ev      *sim.Event
	joined  bool
	fab     *Fabric
	id      int64
	startAt sim.Time
}

// Fabric is the cluster network.
type Fabric struct {
	env   *sim.Env
	nodes map[string]*node
	order []string // deterministic iteration order
	// active holds the flows that have joined and not completed, in
	// flow-ID order: the solver's float operations and its same-instant
	// completion scheduling both follow this order.
	active []*Flow
	// solveLinks is resolve's reused list of links carrying a flow.
	solveLinks []*link

	totalBytes int64
	totalFlows int64
	totalMsgs  int64
	resolves   int64

	// latScale multiplies MsgLatency and LocalLatency at schedule time
	// (New sets 1). Counterfactual profiling scales control-message cost
	// without touching the shared Config.
	latScale float64

	bus        *obs.Bus
	nextFlowID int64

	// blocked holds control messages caught by a link partition, delivered
	// in order when the partition heals.
	blocked []blockedMsg
}

type blockedMsg struct {
	from, to string
	size     int64
	done     func()
}

// SetBus attaches (or detaches, with nil) an observability bus. Bulk
// transfers publish start and completion (with achieved rate) events;
// control messages publish MsgEvents. Local (same-node) and empty
// transfers bypass the fabric and publish nothing. On attach the fabric
// describes every node's link capacities with LinkCapacityEvents (in
// sorted node order), so the log is self-contained for utilization
// analysis.
func (f *Fabric) SetBus(b *obs.Bus) {
	f.bus = b
	if b.Active() {
		for _, id := range f.order {
			f.pubCapacity(f.nodes[id])
		}
	}
}

// pubCapacity publishes one node's current link capacities.
func (f *Fabric) pubCapacity(n *node) {
	if !f.bus.Active() {
		return
	}
	f.bus.Publish(obs.LinkCapacityEvent{
		Node:       n.id,
		EgressBps:  float64(n.egress.capacity),
		IngressBps: float64(n.ingress.capacity),
		At:         f.env.Now(),
	})
}

// New creates an empty fabric on env.
func New(env *sim.Env) *Fabric {
	return &Fabric{
		env:      env,
		latScale: 1,
		nodes:    make(map[string]*node),
	}
}

// msgLat is the effective per-message propagation latency under the current
// counterfactual scale.
func (f *Fabric) msgLat() time.Duration {
	return time.Duration(float64(MsgLatency) * f.latScale)
}

// localLat is the effective same-node RPC latency under the current
// counterfactual scale.
func (f *Fabric) localLat() time.Duration {
	return time.Duration(float64(localLatency) * f.latScale)
}

// SetLatencyScale multiplies every message and same-node RPC latency by s
// (s ≥ 0; 0 makes control messaging instantaneous). Flow serialization is
// unaffected — use SetBandwidthScale for link speed. It applies to sends
// that begin after the call.
func (f *Fabric) SetLatencyScale(s float64) {
	if s < 0 {
		s = 0
	}
	f.latScale = s
}

// SetBandwidthScale multiplies every link's capacity by s (s > 0) in both
// directions, on top of configured capacity and fault factors. Active flows
// are re-solved immediately. Counterfactual profiling uses it to answer
// "what if the network were k× faster" without touching the cluster spec
// the scheduler saw.
func (f *Fabric) SetBandwidthScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("network: non-positive bandwidth scale %v", s))
	}
	f.settleAll()
	for _, id := range f.order {
		n := f.nodes[id]
		n.egress.scale = s
		n.ingress.scale = s
	}
	f.resolve()
}

// AddNode registers a node with the given egress and ingress capacities.
// Adding a node twice panics: topology is fixed at cluster construction.
func (f *Fabric) AddNode(id string, egress, ingress Bandwidth) {
	if _, ok := f.nodes[id]; ok {
		panic(fmt.Sprintf("network: duplicate node %q", id))
	}
	if egress <= 0 || ingress <= 0 {
		panic(fmt.Sprintf("network: node %q has non-positive bandwidth", id))
	}
	f.nodes[id] = &node{
		id:      id,
		egress:  &link{capacity: egress, factor: 1, scale: 1},
		ingress: &link{capacity: ingress, factor: 1, scale: 1},
	}
	f.order = append(f.order, id)
	sort.Strings(f.order)
}

// HasNode reports whether id is registered.
func (f *Fabric) HasNode(id string) bool {
	_, ok := f.nodes[id]
	return ok
}

// SetBandwidth reconfigures a node's link capacities mid-run (the paper's
// wondershaper throttling). Active flows are re-solved immediately.
func (f *Fabric) SetBandwidth(id string, egress, ingress Bandwidth) {
	n, ok := f.nodes[id]
	if !ok {
		panic(fmt.Sprintf("network: unknown node %q", id))
	}
	if egress <= 0 || ingress <= 0 {
		panic(fmt.Sprintf("network: node %q set to non-positive bandwidth", id))
	}
	f.settleAll()
	n.egress.capacity = egress
	n.ingress.capacity = ingress
	f.pubCapacity(n)
	f.resolve()
}

// SetLinkFactor applies a fault multiplier to both directions of a node's
// access link: 1 restores full capacity, values in (0,1) degrade it, and 0
// partitions the node — bulk flows stall (they resume when the factor
// rises) and control messages queue until the partition heals, arriving in
// send order. Active flows are re-solved immediately.
func (f *Fabric) SetLinkFactor(id string, factor float64) {
	n, ok := f.nodes[id]
	if !ok {
		panic(fmt.Sprintf("network: unknown node %q", id))
	}
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("network: node %q link factor %v out of [0,1]", id, factor))
	}
	f.settleAll()
	n.egress.factor = factor
	n.ingress.factor = factor
	if f.bus.Active() {
		f.bus.Publish(obs.LinkFaultEvent{Node: id, Factor: factor, At: f.env.Now()})
		f.bus.Publish(obs.LinkCapacityEvent{
			Node:       id,
			EgressBps:  n.egress.effCap(),
			IngressBps: n.ingress.effCap(),
			At:         f.env.Now(),
		})
	}
	f.resolve()
	if factor > 0 {
		f.drainBlocked()
	}
}

// partitioned reports whether a message between the two nodes is cut off.
func (f *Fabric) partitioned(src, dst *node) bool {
	return src.egress.factor == 0 || dst.ingress.factor == 0
}

// drainBlocked re-sends queued messages whose endpoints are both reachable
// again, preserving send order among the drained set.
func (f *Fabric) drainBlocked() {
	if len(f.blocked) == 0 {
		return
	}
	pending := f.blocked
	f.blocked = nil
	for _, m := range pending {
		if f.partitioned(f.nodes[m.from], f.nodes[m.to]) {
			f.blocked = append(f.blocked, m)
			continue
		}
		f.deliverMsg(m.from, m.to, m.size, m.done)
	}
}

// Send starts a bulk transfer of size bytes from one node to another and
// calls done when the last byte has arrived. Same-node transfers complete
// after LocalLatency without touching the fabric. It returns the flow for
// inspection (nil for local transfers).
func (f *Fabric) Send(from, to string, size int64, done func()) *Flow {
	if size < 0 {
		panic("network: negative transfer size")
	}
	if done == nil {
		done = func() {}
	}
	src, ok := f.nodes[from]
	if !ok {
		panic(fmt.Sprintf("network: unknown sender %q", from))
	}
	dst, ok := f.nodes[to]
	if !ok {
		panic(fmt.Sprintf("network: unknown receiver %q", to))
	}
	if from == to {
		f.env.Schedule(f.localLat(), done)
		return nil
	}
	if size == 0 {
		// An empty payload degenerates to a bare message.
		f.totalFlows++
		if f.partitioned(src, dst) {
			f.blocked = append(f.blocked, blockedMsg{from: from, to: to, done: done})
			return nil
		}
		f.env.Schedule(f.msgLat(), done)
		return nil
	}
	f.totalFlows++
	f.totalBytes += size
	fl := &Flow{
		from: from, to: to,
		size: size, remaining: float64(size),
		done: done,
		src:  src.egress, dst: dst.ingress,
		fab: f,
		id:  f.nextFlowID, startAt: f.env.Now(),
	}
	f.nextFlowID++
	if f.bus.Active() {
		f.bus.Publish(obs.FlowEvent{
			ID: fl.id, From: from, To: to, Bytes: size,
			Active: len(f.active) + 1, At: fl.startAt,
		})
	}
	// The flow joins the fabric after propagation latency.
	fl.ev = f.env.NewEvent(fl.fire)
	f.env.Reschedule(fl.ev, f.env.After(f.msgLat()))
	return fl
}

// fire is the flow's event callback: the first firing joins the flow to
// the fabric, the next one (at the last solve's finish instant) completes
// it.
func (fl *Flow) fire() {
	f := fl.fab
	if fl.joined {
		f.complete(fl)
		return
	}
	fl.joined = true
	fl.updatedAt = f.env.Now()
	f.settleAll()
	f.join(fl)
	f.resolve()
}

// SendMsg delivers a small control message: latency plus serialization at
// the slower of the two links' full capacity (control messages are short
// enough that modeling them as fair-share flows is pointless). Same-node
// messages pay LocalLatency.
func (f *Fabric) SendMsg(from, to string, size int64, done func()) {
	if size < 0 {
		panic("network: negative message size")
	}
	if done == nil {
		done = func() {}
	}
	src, ok := f.nodes[from]
	if !ok {
		panic(fmt.Sprintf("network: unknown sender %q", from))
	}
	dst, ok := f.nodes[to]
	if !ok {
		panic(fmt.Sprintf("network: unknown receiver %q", to))
	}
	f.totalMsgs++
	if from == to {
		f.env.Schedule(f.localLat(), done)
		return
	}
	if f.partitioned(src, dst) {
		// The partition swallows the message until the link heals; delivery
		// resumes in send order from drainBlocked.
		f.blocked = append(f.blocked, blockedMsg{from: from, to: to, size: size, done: done})
		return
	}
	f.deliverMsg(from, to, size, done)
}

// deliverMsg pays latency plus serialization at the slower link's effective
// capacity and schedules done.
func (f *Fabric) deliverMsg(from, to string, size int64, done func()) {
	src, dst := f.nodes[from], f.nodes[to]
	bw := math.Min(src.egress.effCap(), dst.ingress.effCap())
	ser := time.Duration(float64(size) / bw * float64(time.Second))
	f.totalBytes += size
	if f.bus.Active() {
		f.bus.Publish(obs.MsgEvent{From: from, To: to, Bytes: size, At: f.env.Now()})
	}
	f.env.Schedule(f.msgLat()+ser, done)
}

// join inserts a flow into the active list at its flow-ID position. Joins
// arrive in ID order unless the message latency changed in between.
func (f *Fabric) join(fl *Flow) {
	i := sort.Search(len(f.active), func(i int) bool { return f.active[i].id > fl.id })
	f.active = append(f.active, nil)
	copy(f.active[i+1:], f.active[i:])
	f.active[i] = fl
}

// leave removes a completed flow from the active list.
func (f *Fabric) leave(fl *Flow) {
	i := sort.Search(len(f.active), func(i int) bool { return f.active[i].id >= fl.id })
	copy(f.active[i:], f.active[i+1:])
	f.active[len(f.active)-1] = nil
	f.active = f.active[:len(f.active)-1]
}

// settleAll advances every active flow's remaining-bytes to the current
// instant at its old rate. Must be called before any rate change; the
// resolve that follows re-keys every finish event.
func (f *Fabric) settleAll() {
	now := f.env.Now()
	for _, fl := range f.active {
		elapsed := (now - fl.updatedAt).Duration().Seconds()
		fl.remaining -= fl.rate * elapsed
		if fl.remaining < 0 {
			fl.remaining = 0
		}
		fl.updatedAt = now
	}
}

// resolve computes max-min fair rates for all active flows (progressive
// filling over the 2-resource path egress→ingress) and re-keys each flow's
// completion. Every loop iterates flows in flow-ID order and links in
// first-use order: float accumulation order and same-instant completion
// scheduling order both leak into the simulation.
func (f *Fabric) resolve() {
	if len(f.active) == 0 {
		return
	}
	f.resolves++
	// Collect links that carry at least one flow, in first-use order.
	links := f.solveLinks[:0]
	for _, fl := range f.active {
		fl.rate = -1 // unfixed
		for _, l := range [2]*link{fl.src, fl.dst} {
			if !l.solving {
				l.solving = true
				l.unfixed = 0
				l.used = 0
				links = append(links, l)
			}
			l.unfixed++
		}
	}
	f.solveLinks = links
	unfixedFlows := len(f.active)
	for unfixedFlows > 0 {
		// Find the bottleneck: the link whose equal share for its unfixed
		// flows is smallest.
		var bottleneck *link
		share := math.Inf(1)
		for _, l := range links {
			if l.unfixed == 0 {
				continue
			}
			s := (l.effCap() - l.used) / float64(l.unfixed)
			if s < share {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		// Fix every unfixed flow crossing the bottleneck at the share.
		for _, fl := range f.active {
			if fl.rate >= 0 || (fl.src != bottleneck && fl.dst != bottleneck) {
				continue
			}
			fl.rate = share
			unfixedFlows--
			for _, l := range [2]*link{fl.src, fl.dst} {
				l.used += share
				l.unfixed--
			}
		}
	}
	for _, l := range links {
		l.solving = false
	}
	// Schedule completions.
	now := f.env.Now()
	for _, fl := range f.active {
		fl.scheduleFinish(now)
	}
}

// scheduleFinish re-keys the flow's finish event to the instant its
// remaining bytes drain at the current rate. Re-keying takes a fresh
// scheduling sequence, exactly as canceling and scheduling anew would.
func (fl *Flow) scheduleFinish(now sim.Time) {
	if fl.rate <= 0 {
		// Starved (zero capacity); it will be re-solved on the next event.
		fl.ev.Cancel()
		return
	}
	secs := fl.remaining / fl.rate
	delay := time.Duration(secs*float64(time.Second)) + 1
	if delay < 0 {
		delay = 0
	}
	fl.fab.env.Reschedule(fl.ev, now+sim.Time(delay))
}

func (f *Fabric) complete(fl *Flow) {
	f.settleAll()
	f.leave(fl)
	fl.remaining = 0
	f.resolve()
	if f.bus.Active() {
		now := f.env.Now()
		rate := 0.0
		if secs := (now - fl.startAt).Duration().Seconds(); secs > 0 {
			rate = float64(fl.size) / secs
		}
		f.bus.Publish(obs.FlowEvent{
			ID: fl.id, From: fl.from, To: fl.to, Bytes: fl.size,
			Done: true, Rate: rate, Active: len(f.active), At: now,
		})
	}
	if fl.done != nil {
		fl.done()
	}
}

// Resolves reports how many times the max-min fair-share solver has run
// over a non-empty flow set — the hot-path cost driver the perf suite
// tracks (every flow join, completion, and capacity change re-solves).
func (f *Fabric) Resolves() int64 { return f.resolves }

// Stats is a snapshot of fabric byte accounting.
type Stats struct {
	TotalBytes int64 // all bytes that crossed the fabric (flows + messages)
	TotalFlows int64 // bulk transfers started
	TotalMsgs  int64 // control messages sent
}

// Stats returns cumulative fabric counters.
func (f *Fabric) Stats() Stats {
	return Stats{TotalBytes: f.totalBytes, TotalFlows: f.totalFlows, TotalMsgs: f.totalMsgs}
}
