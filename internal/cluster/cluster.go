// Package cluster models worker nodes and their function containers: the
// compute substrate under both workflow engines.
//
// Each Node has a fixed core count and DRAM. Function invocations acquire a
// container (reusing a warm one, cold-starting a new one, or queueing when
// the per-function scale limit or node memory is exhausted — paper Table 3:
// 1-core/256 MB containers, 600 s lifetime, at most 10 containers per
// function per node) and then execute on the node's cores under processor
// sharing: when more containers compute than cores exist, everyone slows
// down proportionally, which is what makes co-location interference (paper
// §5.5) visible.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Acquisition failure causes, reported through AcquireOpts' callback.
var (
	// ErrQueueFull is a fast-fail: the per-function waiting queue was at
	// Config.MaxQueueDepth, so the request was shed instead of queued.
	ErrQueueFull = errors.New("cluster: acquire queue full")
	// ErrDeadline is a queued acquisition withdrawn because its deadline
	// passed before a container freed up.
	ErrDeadline = errors.New("cluster: acquire deadline exceeded")
	// ErrFenced is an acquisition rejected by its epoch fence: the engine
	// that issued it lost ownership of the invocation's shard (federation
	// failover), so granting it a container would let a stale owner keep
	// executing. Checked on entry and again at grant time, so a request
	// queued before the ownership change is rejected too.
	ErrFenced = errors.New("cluster: acquire fenced by stale epoch")
	// ErrNodeDown is an acquisition aborted by a node failure (or issued
	// against a node already down).
	ErrNodeDown = errors.New("cluster: node down")
)

// Config fixes a node's hardware and container policy. The defaults mirror
// the paper's Table 3 testbed.
type Config struct {
	Cores        int           // physical cores per node
	DRAM         int64         // bytes of node memory
	ContainerMem int64         // memory limit per container
	ColdStart    time.Duration // container cold-start latency
	KeepAlive    time.Duration // idle container lifetime
	PerFnLimit   int           // max containers per function on this node

	// MaxQueueDepth bounds the per-function Acquire waiting queue: a
	// request that would leave more than MaxQueueDepth waiters standing is
	// shed with ErrQueueFull instead of queueing unboundedly. 0 keeps the
	// historical unbounded FIFO.
	MaxQueueDepth int
}

// DefaultConfig returns the paper's worker configuration: 8 cores, 32 GB
// DRAM, 1-core 256 MB containers with a 600 s lifetime and a limit of 10
// containers per function per node.
func DefaultConfig() Config {
	return Config{
		Cores:        8,
		DRAM:         32 << 30,
		ContainerMem: 256 << 20,
		ColdStart:    400 * time.Millisecond,
		KeepAlive:    600 * time.Second,
		PerFnLimit:   10,
	}
}

// Validate reports configuration mistakes.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cluster: Cores = %d, must be positive", c.Cores)
	case c.DRAM <= 0:
		return fmt.Errorf("cluster: DRAM = %d, must be positive", c.DRAM)
	case c.ContainerMem <= 0:
		return fmt.Errorf("cluster: ContainerMem = %d, must be positive", c.ContainerMem)
	case c.ContainerMem > c.DRAM:
		return fmt.Errorf("cluster: container memory %d exceeds DRAM %d", c.ContainerMem, c.DRAM)
	case c.PerFnLimit <= 0:
		return fmt.Errorf("cluster: PerFnLimit = %d, must be positive", c.PerFnLimit)
	case c.MaxQueueDepth < 0:
		return fmt.Errorf("cluster: MaxQueueDepth = %d, must be >= 0", c.MaxQueueDepth)
	}
	return nil
}

// Container is one warm or running function sandbox.
type Container struct {
	Fn   string
	Node *Node
	id   int

	idle   bool
	dead   bool       // node failed while the container was alive
	expiry *sim.Event // keep-alive eviction, built on the first Release and re-keyed after
}

// Dead reports whether the container was lost to a node failure. Release
// and Destroy on a dead container are no-ops: the slot and memory were
// already reclaimed when the node went down.
func (c *Container) Dead() bool { return c.dead }

// Node is one worker machine.
type Node struct {
	id  string
	env *sim.Env
	cfg Config

	pools      map[string]*fnPool
	containers int   // total live containers
	memUsed    int64 // bytes held by live containers
	reclaimed  int64 // bytes handed to FaaStore (excluded from container use)
	live       map[*Container]struct{}
	failed     bool

	// Processor-sharing CPU state: in-flight Exec tasks in Exec order, so
	// tasks finishing at the same instant complete in the order they began.
	running []*cpuTask

	// coldScale multiplies Config.ColdStart at provisioning time
	// (NewNode sets 1). Counterfactual profiling sets it so cold-start
	// cost can change without touching the shared Config.
	coldScale float64

	// tenantWeights drives weighted-fair Acquire queueing: relative shares
	// for tenants in the map, weight 1 for everyone else (including the
	// empty tenant). Nil = every tenant at weight 1.
	tenantWeights map[string]float64
	tenantStats   map[string]*TenantNodeStats

	stats NodeStats
	bus   *obs.Bus
}

// SetTenantWeights installs relative weights for weighted-fair Acquire
// queueing (default 1 per tenant; non-positive entries are ignored). The
// map is copied. Tags already assigned to queued waiters keep their old
// weights.
func (n *Node) SetTenantWeights(weights map[string]float64) {
	n.tenantWeights = make(map[string]float64, len(weights))
	for t, w := range weights {
		if w > 0 {
			n.tenantWeights[t] = w
		}
	}
}

// SetColdStartScale multiplies this node's container cold-start latency by
// s (s ≥ 0; 0 makes cold starts instantaneous). Warm hits are unaffected.
// It only applies to provisioning that begins after the call.
func (n *Node) SetColdStartScale(s float64) {
	if s < 0 {
		s = 0
	}
	n.coldScale = s
}

// coldStartDelay is the effective cold-start latency under the node's
// current scale.
func (n *Node) coldStartDelay() time.Duration {
	return time.Duration(float64(n.cfg.ColdStart) * n.coldScale)
}

// SetBus attaches (or detaches, with nil) an observability bus; container
// lifecycle transitions publish to it with the node's occupancy snapshot.
// On attach the node describes its hardware with a NodeCapacityEvent, so
// the log is self-contained for utilization analysis.
func (n *Node) SetBus(b *obs.Bus) {
	n.bus = b
	if b.Active() {
		b.Publish(obs.NodeCapacityEvent{
			Node:         n.id,
			Cores:        n.cfg.Cores,
			MemBytes:     n.cfg.DRAM,
			ContainerMem: n.cfg.ContainerMem,
			At:           n.env.Now(),
		})
	}
}

// pubContainer publishes one lifecycle transition with current occupancy.
func (n *Node) pubContainer(fn string, op obs.ContainerOp) {
	if !n.bus.Active() {
		return
	}
	var warm, queued int
	if p := n.pools[fn]; p != nil {
		warm, queued = len(p.warm), p.q.size
	}
	n.bus.Publish(obs.ContainerEvent{
		Node:       n.id,
		Function:   fn,
		Op:         op,
		Containers: n.containers,
		MemUsed:    n.memUsed,
		Warm:       warm,
		Queued:     queued,
		At:         n.env.Now(),
	})
}

// pubTask publishes one CPU slot transition with the running-task count.
func (n *Node) pubTask(start bool) {
	if !n.bus.Active() {
		return
	}
	n.bus.Publish(obs.TaskEvent{
		Node:    n.id,
		Running: len(n.running),
		Start:   start,
		At:      n.env.Now(),
	})
}

// TenantNodeStats aggregates one tenant's Acquire-queue counters on a node
// — the per-tenant breakdown behind the gateway's /cluster and /tenants
// views.
type TenantNodeStats struct {
	Tenant         string `json:"tenant"`
	QueuedWaits    int64  `json:"queuedWaits"`
	Grants         int64  `json:"grants"` // containers handed to this tenant's waiters
	Shed           int64  `json:"shed"`
	DeadlineAborts int64  `json:"deadlineAborts"`
	FencedAcquires int64  `json:"fencedAcquires"`
}

// tenantStat returns the tenant's counter block, allocating on first use.
func (n *Node) tenantStat(tenant string) *TenantNodeStats {
	if n.tenantStats == nil {
		n.tenantStats = map[string]*TenantNodeStats{}
	}
	ts := n.tenantStats[tenant]
	if ts == nil {
		ts = &TenantNodeStats{Tenant: tenant}
		n.tenantStats[tenant] = ts
	}
	return ts
}

// TenantStats returns per-tenant Acquire-queue counters, sorted by tenant
// name. Only tenants that sent tenant-labelled requests appear.
func (n *Node) TenantStats() []TenantNodeStats {
	names := make([]string, 0, len(n.tenantStats))
	for t := range n.tenantStats {
		names = append(names, t)
	}
	sort.Strings(names)
	out := make([]TenantNodeStats, 0, len(names))
	for _, t := range names {
		out = append(out, *n.tenantStats[t])
	}
	return out
}

// pubTenantQueue publishes one tenant-attributed queue transition and folds
// it into the tenant's counters. No-op for untenanted waiters, so legacy
// event streams are unchanged.
func (n *Node) pubTenantQueue(fn, tenant, op string) {
	if tenant == "" {
		return
	}
	ts := n.tenantStat(tenant)
	switch op {
	case "enqueue":
		ts.QueuedWaits++
	case "grant":
		ts.Grants++
	case "shed":
		ts.Shed++
	case "deadline":
		ts.DeadlineAborts++
	case "fence":
		ts.FencedAcquires++
	}
	if !n.bus.Active() {
		return
	}
	queued := 0
	if p := n.pools[fn]; p != nil {
		queued = p.q.tenantLen(tenant)
	}
	n.bus.Publish(obs.TenantQueueEvent{
		Node:     n.id,
		Function: fn,
		Tenant:   tenant,
		Op:       op,
		Queued:   queued,
		At:       n.env.Now(),
	})
}

// NodeStats aggregates a node's lifetime counters.
type NodeStats struct {
	ColdStarts     int64
	WarmReuses     int64
	Evictions      int64
	QueuedWaits    int64
	Shed           int64         // acquisitions fast-failed by MaxQueueDepth
	DeadlineAborts int64         // queued acquisitions withdrawn at their deadline
	FencedAcquires int64         // acquisitions rejected by an epoch fence
	Failures       int64         // Fail() calls (node crashes)
	CPUBusy        time.Duration // integrated core-busy time
	PeakMem        int64
	PeakConcurrent int
}

// waiter is one queued acquisition: its completion callback plus the
// deadline expiry event that withdraws it from the queue (nil when the
// request has no deadline), its tenant attribution, and its weighted-fair
// scheduling tags.
type waiter struct {
	ready  func(c *Container, cold bool, err error)
	expire *sim.Event
	fence  func() error
	tenant string

	seq    uint64  // arrival order, unique per pool — FIFO tie-break
	finish float64 // virtual finish tag (start-time fair queueing)
	prev   float64 // tenant's lastFinish before this push, for shed rollback
}

// serve cancels the pending expiry (the waiter is being handed a
// container, or aborted through another path) before completion fires.
func (w *waiter) serve() {
	if w.expire != nil {
		w.expire.Cancel()
		w.expire = nil
	}
}

// wfq is a start-time weighted-fair queue of acquisition waiters: each
// tenant keeps a private FIFO, every arrival is stamped with a virtual
// finish tag F = max(vtime, lastFinish[tenant]) + 1/weight(tenant), and the
// queue serves the head with the smallest (finish, seq). Tenants with
// higher weight accrue smaller per-request increments, so they are served
// proportionally more often; within a tenant the seq tie-break preserves
// strict arrival order. With a single tenant the tags grow monotonically
// with arrival, so the queue degenerates to exact FIFO — the pre-tenancy
// behaviour.
type wfq struct {
	n          *Node
	queues     map[string][]*waiter // per-tenant FIFO
	lastFinish map[string]float64
	vtime      float64 // virtual time: finish tag of the last served waiter
	size       int
	nextSeq    uint64
}

func newWFQ(n *Node) *wfq {
	return &wfq{n: n, queues: map[string][]*waiter{}, lastFinish: map[string]float64{}}
}

// weight looks up the tenant's configured weight (default 1).
func (q *wfq) weight(tenant string) float64 {
	if w, ok := q.n.tenantWeights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// push enqueues w at the tail of its tenant's FIFO and stamps its tags.
func (q *wfq) push(w *waiter) {
	w.prev = q.lastFinish[w.tenant]
	start := q.vtime
	if w.prev > start {
		start = w.prev
	}
	w.finish = start + 1/q.weight(w.tenant)
	q.lastFinish[w.tenant] = w.finish
	w.seq = q.nextSeq
	q.nextSeq++
	q.queues[w.tenant] = append(q.queues[w.tenant], w)
	q.size++
}

// unpush removes a just-pushed waiter (the tail of its tenant's FIFO, with
// nothing pushed since) and rolls the tenant's lastFinish back, so a shed
// arrival does not penalize the tenant's next request.
func (q *wfq) unpush(w *waiter) {
	if q.remove(w) {
		q.lastFinish[w.tenant] = w.prev
	}
}

// peek returns the next waiter to serve without removing it: the queue-head
// with the smallest (finish, seq). The (finish, seq) pair is unique per
// waiter, so the selection is deterministic despite map iteration order.
func (q *wfq) peek() *waiter {
	var best *waiter
	for _, ws := range q.queues {
		w := ws[0]
		if best == nil || w.finish < best.finish || (w.finish == best.finish && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

// pop removes and returns the next waiter, advancing virtual time to its
// finish tag.
func (q *wfq) pop() *waiter {
	w := q.peek()
	if w == nil {
		return nil
	}
	q.remove(w)
	if w.finish > q.vtime {
		q.vtime = w.finish
	}
	return w
}

// remove withdraws w wherever it stands (deadline expiry, fencing) and
// reports whether it was queued. Virtual time does not advance: removal is
// not service.
func (q *wfq) remove(w *waiter) bool {
	ws := q.queues[w.tenant]
	for i, x := range ws {
		if x == w {
			ws = append(ws[:i], ws[i+1:]...)
			if len(ws) == 0 {
				delete(q.queues, w.tenant)
			} else {
				q.queues[w.tenant] = ws
			}
			q.size--
			return true
		}
	}
	return false
}

// contains reports whether w is still queued.
func (q *wfq) contains(w *waiter) bool {
	for _, x := range q.queues[w.tenant] {
		if x == w {
			return true
		}
	}
	return false
}

// tenantLen reports one tenant's queued waiters.
func (q *wfq) tenantLen(tenant string) int { return len(q.queues[tenant]) }

// drain empties the queue and returns every waiter in arrival order — the
// abort path (node failure) preserves pre-tenancy FIFO abort order.
func (q *wfq) drain() []*waiter {
	out := make([]*waiter, 0, q.size)
	for _, ws := range q.queues {
		out = append(out, ws...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	q.queues = map[string][]*waiter{}
	q.size = 0
	return out
}

type fnPool struct {
	warm   []*Container
	total  int // warm + busy containers for this function
	peak   int
	q      *wfq
	nextID int
}

func newFnPool(n *Node) *fnPool { return &fnPool{q: newWFQ(n)} }

type cpuTask struct {
	remaining float64 // CPU-seconds of work left
	rate      float64 // current share of one core (0..1]
	updatedAt sim.Time
	finish    *sim.Event // created on the first schedule, re-keyed after
	done      func()
}

// NewNode creates a worker node. The id must match the node's fabric ID so
// engines and stores agree on placement.
func NewNode(env *sim.Env, id string, cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Node{
		id:        id,
		env:       env,
		cfg:       cfg,
		coldScale: 1,
		pools:     map[string]*fnPool{},
		live:      map[*Container]struct{}{},
	}
}

// ID reports the node's identifier.
func (n *Node) ID() string { return n.id }

// Config reports the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a snapshot of lifetime counters. CPUBusy includes the work
// in-flight tasks have done so far; reading it changes no simulation state.
func (n *Node) Stats() NodeStats {
	st := n.stats
	now := n.env.Now()
	for _, t := range n.running {
		st.CPUBusy += time.Duration(t.workSince(now) * float64(time.Second))
	}
	return st
}

// MemUsed reports bytes currently held by containers.
func (n *Node) MemUsed() int64 { return n.memUsed }

// Containers reports the number of live containers.
func (n *Node) Containers() int { return n.containers }

// WarmContainers reports idle warm containers for a function.
func (n *Node) WarmContainers(fn string) int {
	if p := n.pools[fn]; p != nil {
		return len(p.warm)
	}
	return 0
}

// QueuedAcquires reports acquisitions waiting across all function pools.
// After a workflow drains (completes, fails, or deadlines out) this must
// return to zero — the leak check behind the overload experiments.
func (n *Node) QueuedAcquires() int {
	total := 0
	for _, p := range n.pools {
		total += p.q.size
	}
	return total
}

// TenantQueuedAcquires reports one tenant's waiting acquisitions across all
// function pools.
func (n *Node) TenantQueuedAcquires(tenant string) int {
	total := 0
	for _, p := range n.pools {
		total += p.q.tenantLen(tenant)
	}
	return total
}

// BusyContainers reports live containers currently held by callers (live
// minus idle-warm). Drained workflows must leave zero.
func (n *Node) BusyContainers() int {
	busy := n.containers
	for _, p := range n.pools {
		busy -= len(p.warm)
	}
	return busy
}

// ScaleOf reports the current and peak container count for a function —
// the runtime feedback behind the paper's Scale(v) metric.
func (n *Node) ScaleOf(fn string) (current, peak int) {
	if p := n.pools[fn]; p != nil {
		return p.total, p.peak
	}
	return 0, 0
}

// Capacity reports how many more containers this node can host, limited by
// DRAM not yet reserved by containers or reclaimed by FaaStore. This is the
// Cap[node] input to the grouping algorithm.
func (n *Node) Capacity() int {
	free := n.cfg.DRAM - n.memUsed - n.reclaimed
	if free < 0 {
		return 0
	}
	return int(free / n.cfg.ContainerMem)
}

// Reclaim transfers bytes of node DRAM to FaaStore's in-memory store
// (positive) or returns them (negative). It fails when the node cannot
// cover the request with free memory.
func (n *Node) Reclaim(bytes int64) error {
	if bytes > 0 && n.cfg.DRAM-n.memUsed-n.reclaimed < bytes {
		return fmt.Errorf("cluster: node %s cannot reclaim %d bytes (%d free)",
			n.id, bytes, n.cfg.DRAM-n.memUsed-n.reclaimed)
	}
	if n.reclaimed+bytes < 0 {
		return fmt.Errorf("cluster: node %s returning %d bytes but only %d reclaimed",
			n.id, -bytes, n.reclaimed)
	}
	n.reclaimed += bytes
	if bytes < 0 {
		// Returned memory may unblock pools queued on node DRAM.
		n.pumpAll()
	}
	return nil
}

// Reclaimed reports bytes currently lent to FaaStore.
func (n *Node) Reclaimed() int64 { return n.reclaimed }

// Acquire obtains a container for fn, calling ready with the container and
// whether the acquisition was a cold start. Warm reuse completes on the
// next event tick; cold start pays Config.ColdStart; when the function is
// at its scale limit or the node is out of memory, the request queues until
// a container frees up. Queued requests are served weighted-fair across
// tenants and strictly in arrival order within a tenant; with no
// tenant-labelled requests that is exact FIFO — a new request never jumps
// ahead of queued waiters.
//
// If the node fails (Fail) before the request is served — or has already
// failed — ready is called with a nil container; callers must treat that as
// an aborted acquisition and recover elsewhere. Acquire ignores
// Config.MaxQueueDepth and deadlines; AcquireOpts is the bounded variant.
func (n *Node) Acquire(fn string, ready func(c *Container, cold bool)) {
	if ready == nil {
		panic("cluster: Acquire with nil callback")
	}
	n.acquire(fn, AcquireOptions{unbounded: true}, func(c *Container, cold bool, err error) {
		ready(c, cold)
	})
}

// AcquireOptions tunes one AcquireOpts request.
type AcquireOptions struct {
	// Deadline is the absolute virtual instant after which the request no
	// longer wants a container: a request still queued then is withdrawn
	// with ErrDeadline (a request whose deadline already passed fails
	// immediately). 0 = no deadline.
	Deadline sim.Time

	// Fence, when set, is the request's ownership check: a non-nil return
	// means the issuing engine's epoch is stale and the request must fail
	// with ErrFenced. It is evaluated on entry and again whenever the
	// request is about to be granted a container, so an ownership change
	// while queued still fences the grant.
	Fence func() error

	// Tenant attributes the request for weighted-fair queueing: queued
	// requests are served round-robin across tenants in proportion to
	// SetTenantWeights, FIFO within a tenant, and Config.MaxQueueDepth
	// bounds each tenant's queue separately. "" joins the untenanted queue
	// (weight 1).
	Tenant string

	// unbounded marks legacy Acquire calls, which predate MaxQueueDepth
	// and keep the historical never-shed semantics.
	unbounded bool
}

// AcquireOpts is Acquire with overload controls: the request is shed with
// ErrQueueFull when the function's waiting queue is at Config.MaxQueueDepth,
// withdrawn with ErrDeadline when still queued at opts.Deadline, and aborted
// with ErrNodeDown by node failure. On success err is nil and c non-nil.
func (n *Node) AcquireOpts(fn string, opts AcquireOptions, ready func(c *Container, cold bool, err error)) {
	if ready == nil {
		panic("cluster: AcquireOpts with nil callback")
	}
	n.acquire(fn, opts, ready)
}

func (n *Node) acquire(fn string, opts AcquireOptions, ready func(c *Container, cold bool, err error)) {
	if n.failed {
		n.env.Schedule(0, func() { ready(nil, false, ErrNodeDown) })
		return
	}
	if opts.Deadline > 0 && n.env.Now() >= opts.Deadline {
		n.stats.DeadlineAborts++
		n.pubContainer(fn, obs.ContainerDeadline)
		n.env.Schedule(0, func() { ready(nil, false, ErrDeadline) })
		return
	}
	if opts.Fence != nil && opts.Fence() != nil {
		n.stats.FencedAcquires++
		n.env.Schedule(0, func() { ready(nil, false, ErrFenced) })
		return
	}
	p := n.pools[fn]
	if p == nil {
		p = newFnPool(n)
		n.pools[fn] = p
	}
	w := &waiter{ready: ready, fence: opts.Fence, tenant: opts.Tenant}
	if p.q.size == 0 && n.canGrant(p) {
		// Uncontended: grant without touching the fair queue. The entry
		// fence check above still covers the grant (nothing ran in
		// between), and no finish tag is accrued, so uncontended traffic
		// never costs a tenant future priority.
		n.grant(fn, p, w)
		return
	}
	p.q.push(w)
	n.pump(fn, p)
	// Under weighted-fair queueing a newcomer with a small finish tag can be
	// served ahead of standing waiters, so membership — not queue length —
	// decides whether we are still waiting.
	if !p.q.contains(w) {
		return
	}
	if !opts.unbounded && n.cfg.MaxQueueDepth > 0 && p.q.tenantLen(w.tenant) > n.cfg.MaxQueueDepth {
		// Backpressure: shedding the newcomer (the tail of its tenant's
		// FIFO) keeps order for everyone already standing, and the depth
		// bound is per tenant, so one tenant's backlog cannot shed another's
		// requests.
		p.q.unpush(w)
		n.stats.Shed++
		n.pubContainer(fn, obs.ContainerShed)
		n.pubTenantQueue(fn, w.tenant, "shed")
		n.env.Schedule(0, func() { ready(nil, false, ErrQueueFull) })
		return
	}
	n.stats.QueuedWaits++
	n.pubContainer(fn, obs.ContainerQueued)
	n.pubTenantQueue(fn, w.tenant, "enqueue")
	if opts.Deadline > 0 {
		w.expire = n.env.At(opts.Deadline, func() { n.expireWaiter(fn, w) })
	}
}

// expireWaiter withdraws a still-queued acquisition at its deadline.
func (n *Node) expireWaiter(fn string, w *waiter) {
	p := n.pools[fn]
	if p == nil {
		return
	}
	if p.q.remove(w) {
		w.expire = nil
		n.stats.DeadlineAborts++
		n.pubContainer(fn, obs.ContainerDeadline)
		n.pubTenantQueue(fn, w.tenant, "deadline")
		w.ready(nil, false, ErrDeadline)
	}
}

// pump serves fn's waiting queue front-first while resources allow: warm
// reuse, then cold start under the scale limit and free node memory. It is
// the single wakeup path shared by Acquire, Destroy, evict, Reclaim, and
// Recover, so any freed slot or memory re-examines the queue.
// dropFenced fails front-of-queue waiters whose epoch fence now rejects
// them — an ownership change while queued must not be rewarded with a
// container. Called before any grant, so a fenced waiter never reaches
// ready with a container.
func (n *Node) dropFenced(fn string, p *fnPool) {
	for p.q.size > 0 {
		w := p.q.peek()
		if w.fence == nil || w.fence() == nil {
			return
		}
		p.q.remove(w)
		w.serve()
		n.stats.FencedAcquires++
		n.pubTenantQueue(fn, w.tenant, "fence")
		n.env.Schedule(0, func() { w.ready(nil, false, ErrFenced) })
	}
}

// canGrant reports whether fn's pool can serve one more waiter right now:
// a warm container is idle, or the scale limit and node memory leave room
// for a new one.
func (n *Node) canGrant(p *fnPool) bool {
	return len(p.warm) > 0 ||
		(p.total < n.cfg.PerFnLimit && n.memUsed+n.cfg.ContainerMem+n.reclaimed <= n.cfg.DRAM)
}

// grant hands w a container (the caller has checked canGrant and taken w
// out of the queue, if it was ever in one): warm reuse when a container is
// idle (LIFO, so the oldest idle containers keep aging toward eviction),
// else a cold start.
func (n *Node) grant(fn string, p *fnPool, w *waiter) {
	w.serve()
	if len(p.warm) > 0 {
		c := p.warm[len(p.warm)-1]
		p.warm = p.warm[:len(p.warm)-1]
		c.idle = false
		c.expiry.Cancel()
		n.stats.WarmReuses++
		n.pubContainer(fn, obs.ContainerWarmReuse)
		n.pubTenantQueue(fn, w.tenant, "grant")
		n.env.Schedule(0, func() { w.ready(c, false, nil) })
		return
	}
	n.pubTenantQueue(fn, w.tenant, "grant")
	p.total++
	if p.total > p.peak {
		p.peak = p.total
	}
	n.containers++
	n.memUsed += n.cfg.ContainerMem
	if n.memUsed > n.stats.PeakMem {
		n.stats.PeakMem = n.memUsed
	}
	n.stats.ColdStarts++
	n.pubContainer(fn, obs.ContainerColdStart)
	c := &Container{Fn: fn, Node: n, id: p.nextID}
	p.nextID++
	n.live[c] = struct{}{}
	n.env.Schedule(n.coldStartDelay(), func() { w.ready(c, true, nil) })
}

func (n *Node) pump(fn string, p *fnPool) {
	for n.dropFenced(fn, p); p.q.size > 0; n.dropFenced(fn, p) {
		if !n.canGrant(p) {
			return // saturated: wait for a release, destroy, or reclaim return
		}
		n.grant(fn, p, p.q.pop())
	}
}

// pumpAll re-examines every pool's waiting queue (in sorted function order,
// for determinism). Freed node memory can unblock pools other than the one
// whose container went away, so slot- or memory-freeing paths call this.
func (n *Node) pumpAll() {
	if n.failed {
		return
	}
	fns := make([]string, 0, len(n.pools))
	for fn, p := range n.pools {
		if p.q.size > 0 {
			fns = append(fns, fn)
		}
	}
	sort.Strings(fns)
	for _, fn := range fns {
		n.pump(fn, n.pools[fn])
	}
}

// Prewarm creates up to count warm containers for fn ahead of traffic (the
// §7 prewarm-pool strategy). It reports how many were actually created —
// fewer when the per-function limit or node memory intervenes. Prewarmed
// containers pay the cold start now, sit warm, and age out after the
// keep-alive window like any other.
func (n *Node) Prewarm(fn string, count int) int {
	if n.failed {
		return 0
	}
	created := 0
	for i := 0; i < count; i++ {
		p := n.pools[fn]
		if p == nil {
			p = newFnPool(n)
			n.pools[fn] = p
		}
		if p.total >= n.cfg.PerFnLimit || n.memUsed+n.cfg.ContainerMem+n.reclaimed > n.cfg.DRAM {
			break
		}
		created++
		n.Acquire(fn, func(c *Container, cold bool) {
			if c != nil {
				n.Release(c)
			}
		})
	}
	return created
}

// Release returns a container after an invocation. If requests are queued
// for the function, the container is handed over immediately; otherwise it
// goes warm and expires after the keep-alive window.
func (n *Node) Release(c *Container) {
	if c.Node != n {
		panic(fmt.Sprintf("cluster: releasing container of node %s on node %s", c.Node.id, n.id))
	}
	if c.dead {
		return // lost to a node failure; slot and memory already reclaimed
	}
	p := n.pools[c.Fn]
	n.dropFenced(c.Fn, p)
	if p.q.size > 0 {
		next := p.q.pop()
		next.serve()
		n.env.Schedule(0, func() { next.ready(c, false, nil) })
		n.stats.WarmReuses++
		n.pubContainer(c.Fn, obs.ContainerWarmReuse)
		n.pubTenantQueue(c.Fn, next.tenant, "grant")
		return
	}
	c.idle = true
	p.warm = append(p.warm, c)
	at := n.env.Now() + sim.Time(max(n.cfg.KeepAlive, 0))
	if c.expiry == nil {
		c.expiry = n.env.At(at, func() { n.evict(c) })
	} else {
		n.env.Reschedule(c.expiry, at)
	}
	n.pubContainer(c.Fn, obs.ContainerReleased)
}

// Destroy removes a container immediately (crashed sandboxes, red-black
// recycling of out-of-date sub-graph versions). The freed slot and memory
// wake queued Acquire waiters — for this function and for any pool queued
// on node memory.
func (n *Node) Destroy(c *Container) {
	if c.dead {
		return // lost to a node failure; already accounted
	}
	if c.expiry != nil {
		c.expiry.Cancel()
	}
	p := n.pools[c.Fn]
	if c.idle {
		for i, w := range p.warm {
			if w == c {
				p.warm = append(p.warm[:i], p.warm[i+1:]...)
				break
			}
		}
	}
	n.freeContainer(c)
	n.pubContainer(c.Fn, obs.ContainerDestroyed)
	n.pumpAll()
}

func (n *Node) evict(c *Container) {
	if !c.idle {
		return // re-acquired before expiry fired (defensive; Acquire cancels)
	}
	p := n.pools[c.Fn]
	for i, w := range p.warm {
		if w == c {
			p.warm = append(p.warm[:i], p.warm[i+1:]...)
			break
		}
	}
	n.stats.Evictions++
	n.freeContainer(c)
	n.pubContainer(c.Fn, obs.ContainerEvicted)
	n.pumpAll()
}

func (n *Node) freeContainer(c *Container) {
	p := n.pools[c.Fn]
	p.total--
	n.containers--
	n.memUsed -= n.cfg.ContainerMem
	c.dead = true
	delete(n.live, c)
}

// Fail models the node crashing: every container (warm or busy) is
// destroyed, in-flight Exec work is killed (the done callbacks never fire),
// and queued Acquire waiters are aborted with a nil container. The node
// rejects new work until Recover is called; warm pools restart cold.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.failed = true
	n.stats.Failures++
	// Kill in-flight compute. Settle first so CPUBusy integrates the work
	// actually done before the crash; the tasks' done callbacks are dropped.
	n.settleCPU()
	for _, t := range n.running {
		t.finish.Cancel()
	}
	hadTasks := len(n.running) > 0
	clear(n.running)
	n.running = n.running[:0]
	// Mark every container dead so late Release/Destroy calls from engines
	// holding them become no-ops. Flag-setting only: order-independent.
	for c := range n.live {
		c.dead = true
		if c.expiry != nil {
			c.expiry.Cancel()
		}
	}
	n.live = map[*Container]struct{}{}
	fns := make([]string, 0, len(n.pools))
	for fn := range n.pools {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		p := n.pools[fn]
		lost := p.total
		p.warm = nil
		p.total = 0
		waiters := p.q.drain()
		n.containers -= lost
		n.memUsed -= int64(lost) * n.cfg.ContainerMem
		if lost > 0 {
			n.pubContainer(fn, obs.ContainerDestroyed)
		}
		for _, w := range waiters {
			w := w
			w.serve()
			n.env.Schedule(0, func() { w.ready(nil, false, ErrNodeDown) })
		}
	}
	if hadTasks {
		n.pubTask(false)
	}
}

// Recover brings a failed node back. Pools come back empty (everything
// cold-starts again); callers model the recovery delay by scheduling the
// call at the recovery instant.
func (n *Node) Recover() {
	if !n.failed {
		return
	}
	n.failed = false
}

// Failed reports whether the node is currently down.
func (n *Node) Failed() bool { return n.failed }

// Exec runs cpuSeconds of compute under processor sharing and calls done
// when finished. With k tasks on c cores each task advances at min(1, c/k)
// core-rate, so contention stretches everyone. On a failed node the work is
// silently dropped — done never fires — mirroring a machine that died with
// the task on it; callers recover via timeouts.
func (n *Node) Exec(cpuSeconds float64, done func()) {
	if cpuSeconds < 0 {
		panic("cluster: negative execution time")
	}
	if n.failed {
		return
	}
	if done == nil {
		done = func() {}
	}
	n.settleCPU()
	t := &cpuTask{remaining: cpuSeconds, updatedAt: n.env.Now(), done: done}
	n.running = append(n.running, t)
	if len(n.running) > n.stats.PeakConcurrent {
		n.stats.PeakConcurrent = len(n.running)
	}
	n.pubTask(true)
	n.rescheduleCPU()
}

// RunningTasks reports how many Exec calls are in flight.
func (n *Node) RunningTasks() int { return len(n.running) }

// workSince reports the CPU-seconds t has done between its last update
// and now at its current rate, capped at what it had left.
func (t *cpuTask) workSince(now sim.Time) float64 {
	elapsed := (now - t.updatedAt).Duration().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return min(t.rate*elapsed, t.remaining)
}

// settleCPU advances all running tasks to the current instant at their old
// rates, integrating core-busy time. Finish events stay queued; the next
// rescheduleCPU re-keys them.
func (n *Node) settleCPU() {
	now := n.env.Now()
	for _, t := range n.running {
		work := t.workSince(now)
		t.remaining -= work
		n.stats.CPUBusy += time.Duration(work * float64(time.Second))
		t.updatedAt = now
	}
}

// rescheduleCPU assigns equal shares and re-keys every task's finish event,
// in Exec order. Each re-key takes a fresh scheduling sequence, so tasks
// due at the same instant fire in Exec order.
func (n *Node) rescheduleCPU() {
	k := len(n.running)
	if k == 0 {
		return
	}
	rate := 1.0
	if k > n.cfg.Cores {
		rate = float64(n.cfg.Cores) / float64(k)
	}
	now := n.env.Now()
	for _, t := range n.running {
		t.rate = rate
		secs := t.remaining / rate
		n.keyFinish(t, now+sim.Time(time.Duration(secs*float64(time.Second))+1))
	}
}

// keyFinish queues t's finish event at instant at: it builds the event and
// its callback on the first call and re-keys the same event after that.
func (n *Node) keyFinish(t *cpuTask, at sim.Time) {
	if t.finish == nil {
		t.finish = n.env.At(at, func() { n.finishTask(t) })
		return
	}
	n.env.Reschedule(t.finish, at)
}

// finishTask retires t, keeping the remaining tasks in Exec order.
func (n *Node) finishTask(t *cpuTask) {
	n.settleCPU()
	for i, r := range n.running {
		if r == t {
			copy(n.running[i:], n.running[i+1:])
			n.running[len(n.running)-1] = nil
			n.running = n.running[:len(n.running)-1]
			break
		}
	}
	n.pubTask(false)
	n.rescheduleCPU()
	t.done()
}
