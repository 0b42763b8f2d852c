// Package engine executes workflow invocations under the paper's two
// scheduling patterns:
//
//   - ModeWorkerSP — FaaSFlow's worker-side pattern (§3, §4.2): each worker
//     runs a decentralized engine holding the Workflow/State/FunctionInfo
//     structures for its sub-graph. Functions trigger locally; only state
//     updates cross the network, and only when an edge spans workers.
//   - ModeMasterSP — the HyperFlow-serverless baseline (§2.2): a central
//     engine on the master node holds all state, assigns every ready task
//     to its worker over the network, and collects every completion.
//
// Both patterns run over the same simulated substrate (cluster nodes,
// network fabric, FaaStore hybrid storage), so measured differences come
// from the pattern itself — the paper's experimental design.
//
// Engine processing is serialized per engine instance, mirroring the
// single-threaded gevent loops of the artifact: a busy master delays every
// trigger decision, which is exactly the overhead WorkerSP removes.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Mode selects the scheduling pattern.
type Mode int

const (
	// ModeWorkerSP triggers functions on worker-local engines (FaaSFlow).
	ModeWorkerSP Mode = iota
	// ModeMasterSP triggers functions from the central master engine
	// (HyperFlow-serverless).
	ModeMasterSP
)

func (m Mode) String() string {
	switch m {
	case ModeWorkerSP:
		return "WorkerSP"
	case ModeMasterSP:
		return "MasterSP"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DataMode selects whether function payloads move through storage.
type DataMode int

const (
	// DataNone packs all inputs into the container image (the paper's
	// §2.3/§5.2 methodology for isolating scheduling overhead).
	DataNone DataMode = iota
	// DataStore moves every edge payload through FaaStore / the remote DB.
	DataStore
)

// Control-message sizes on the fabric.
const (
	// stateMsgBytes is the size of a cross-worker state-update message.
	stateMsgBytes = 256
	// assignMsgBytes is the size of a MasterSP task-assignment message.
	assignMsgBytes = 1024
)

// Options tunes engine cost constants. Zero values take defaults.
type Options struct {
	Mode Mode
	Data DataMode
	// MasterProc is the master engine's per-event processing time (event
	// parsing, trigger-condition checks, task marshalling).
	MasterProc time.Duration
	// WorkerProc is a worker engine's per-event processing time.
	WorkerProc time.Duration
	// NoJitter disables the ±15% per-task execution-time variation. The
	// scheduling-overhead experiments (§5.2) use it: they compare
	// end-to-end latency against the critical path's nominal execution
	// time, so run-to-run compute variance would read as overhead.
	NoJitter bool
	// TaskTimeout bounds one executor attempt (container acquire through
	// output store). When > 0, an attempt that has not completed within
	// the window is abandoned and re-issued — the recovery path for tasks
	// stranded on a node that died mid-flight. It must exceed the longest
	// healthy task's end-to-end time or healthy work gets re-issued.
	TaskTimeout time.Duration
	// BackoffBase is the first re-issue backoff delay; it doubles with
	// each subsequent failure of the same executor, capped at BackoffMax.
	// Zero (the default) re-issues immediately.
	BackoffBase time.Duration
	// BackoffMax caps exponential backoff (default 30s when BackoffBase is
	// set).
	BackoffMax time.Duration
	// MaxReissues bounds fault-driven re-issues (timeouts, node deaths)
	// per executor (default 8). An executor that exhausts its re-issues
	// marks the invocation failed; the failure propagates like a skip so
	// the workflow drains instead of hanging.
	MaxReissues int
	// ExecScale, when non-nil, multiplies each task's execution time by
	// the returned per-function factor at dispatch. Counterfactual
	// profiling uses it so the scheduler's placement inputs (the nominal
	// per-function ExecSeconds) stay identical while the simulated cost
	// changes. A factor of 0 makes execution near-instant.
	ExecScale func(function string) float64
	// Journal enables durable execution: every task completion is logged
	// as a StepCommitted record before the step's state propagates, and
	// CrashEngine/RestartEngine replay the log to resume in-flight
	// invocations without re-executing committed steps. Nil (the default)
	// disables journaling entirely.
	Journal *journal.WAL
	// FastPath enables the data-plane fast path: direct producer→consumer
	// output passing, DAG-lookahead container pre-warm, and content-addressed
	// output memoization (see fastpath.go). All off by default.
	FastPath FastPathOptions
}

func (o Options) withDefaults() Options {
	if o.MasterProc == 0 {
		o.MasterProc = 11 * time.Millisecond
	}
	if o.WorkerProc == 0 {
		o.WorkerProc = 1500 * time.Microsecond
	}
	if o.MaxReissues <= 0 {
		o.MaxReissues = 8
	}
	if o.BackoffBase > 0 && o.BackoffMax == 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.FastPath.Memoize && o.FastPath.MemoLookup == 0 {
		o.FastPath.MemoLookup = 200 * time.Microsecond
	}
	return o
}

// Runtime bundles the shared substrate a deployment executes on.
type Runtime struct {
	Env    *sim.Env
	Fabric *network.Fabric
	Nodes  map[string]*cluster.Node
	Store  *store.Hybrid
	// Master is the fabric ID of the master/storage node.
	Master string
}

// proc is a serialized event processor: one engine's single-threaded loop.
type proc struct {
	env       *sim.Env
	cost      time.Duration
	busyUntil sim.Time
	busy      time.Duration // cumulative processing time
	events    int64
}

// turn is one slot of an engine loop: the enqueue instant, the slot start
// (later than enq when the loop was busy), and the slot end, when the
// turn's callback runs. Callers that observe feed it to the trigger-chain
// builders; everyone else ignores it.
type turn struct{ enq, start, done sim.Time }

// reserve books the loop's next turn. Its timing is known before the
// callback exists, so the callback captures it by value; run queues it.
func (p *proc) reserve() turn {
	s := turn{enq: p.env.Now()}
	s.start = max(s.enq, p.busyUntil)
	p.busyUntil = s.start + sim.Time(p.cost)
	p.busy += p.cost
	p.events++
	s.done = p.busyUntil
	return s
}

// run queues fn to run at the end of the reserved turn s.
func (p *proc) run(s turn, fn func()) { p.env.At(s.done, fn) }

// process queues fn on the loop's next turn, for callers that ignore its
// timing.
func (p *proc) process(fn func()) { p.run(p.reserve(), fn) }

// EngineStats reports one engine loop's lifetime counters (§5.7).
type EngineStats struct {
	Events int64
	Busy   time.Duration
}

// Memory-model constants for the §5.7 accounting: a worker engine costs a
// fixed base (runtime, sockets, code) plus per-sub-graph Workflow
// structures (FunctionInfo) and per-live-invocation State objects. The
// base matches the paper's measured ~47 MB engine footprint; the dynamic
// terms are what the paper's "runtime recycling of the memory invocations"
// reclaims at invocation end.
const (
	engineBaseBytes    = 40 << 20
	perNodeStaticBytes = 512 // FunctionInfo: name, successors, addresses
	perNodeStateBytes  = 64  // State: counters + liveness flags
)

// MemoryModel estimates one engine's resident memory given its sub-graph
// size and current live invocations.
func MemoryModel(nodes, liveInvocations int) int64 {
	return engineBaseBytes +
		int64(nodes)*perNodeStaticBytes +
		int64(nodes)*int64(liveInvocations)*perNodeStateBytes
}

// input is one resolved data dependency: the key(s) written by a producing
// task's out-edge, possibly reached through virtual markers. A foreach
// producer of width W writes W replicas, all of which the consumer reads.
type input struct {
	edgeIdx  int
	bytes    int64
	replicas int // producer's data-plane width
}

// output is one task out-edge with its effective consumer set.
type output struct {
	edgeIdx   int
	bytes     int64
	consumers []dag.NodeID // effective consuming tasks
}

// Deployment is one workflow deployed onto the runtime under a placement.
type Deployment struct {
	rt    *Runtime
	bench *workloads.Benchmark
	place map[dag.NodeID]string
	opts  Options

	g       *dag.Graph
	sinks   []dag.NodeID
	sources []dag.NodeID
	inputs  map[dag.NodeID][]input
	outputs map[dag.NodeID][]output
	// keyBase maps a task out-edge to its first slot in an invocation's
	// key table; the edge's replicas take the slots after it, nKeys in all.
	keyBase  []int
	nKeys    int
	critExec float64
	// conds maps edge index -> compiled switch condition; nodes with any
	// conditional out-edge are runtime switches. A stamped-but-empty
	// condition (not in this map) is the default branch.
	conds         map[int]*expr.Expr
	switchNode    map[dag.NodeID]bool
	timeoutCount  int64
	reissueCount  int64
	replaceCount  int64
	failedInv     int64
	deadlineCount int64
	shedCount     int64
	nodeOrder     []string // sorted runtime node IDs, for deterministic re-placement
	// exhausted records every executor that burned its whole fault
	// re-issue budget, for FailureStats and the gateway failures surface.
	exhausted []ErrReissuesExhausted
	// avoid, when set, excludes workers from fault re-placement (e.g.
	// nodes inside a scheduled NodeDown window that have not failed yet).
	avoid func(worker string) bool

	// Federation state (zero unless SetFence installs an ownership check).
	// engineID names this engine in the federation's membership table;
	// fence is consulted at dispatch, executor phase boundaries, and (via
	// cluster.AcquireOptions.Fence) container grants — a rejection means
	// this engine lost the invocation's shard and must stand down.
	engineID       string
	fence          func(inv int64) error
	fencedSteps    int64 // engine-side fence rejections (dispatch/phase boundaries)
	fencedAcquires int64 // container acquires rejected with cluster.ErrFenced
	adopted        int64 // invocations adopted from a claimed shard

	// Durable-execution state (nil/zero unless Options.Journal is set).
	jr        *journal.WAL
	down      bool
	crashedAt sim.Time
	// liveInvs tracks in-flight invocations by ID so a restart can replay
	// them from the journal.
	liveInvs map[int64]*invocation
	// reexec guards producer re-execution (lost-input recovery): one
	// re-run per (invocation, node) at a time, with waiters coalesced.
	reexec        map[reexecKey][]func()
	engineCrashes int64
	replaySkips   int64
	redispatched  int64
	lostInputs    int64
	reexecCount   int64

	// Fast-path state (zero unless Options.FastPath enables a feature).
	// fastSpans switches the executor from one aggregate "store" span to
	// per-operation spans, so direct pushes attribute as CompDirect.
	fastSpans bool
	// memo records (function, input hash) keys whose outputs have been
	// produced at least once; hits replay the outputs without executing.
	memo             map[uint64]bool
	memoHits         int64
	memoMisses       int64
	directPushes     int64
	directFallbacks  int64
	prewarmIssued    int64
	prewarmHits      int64
	prewarmCancelled int64

	master  *proc
	workers map[string]*proc
	obs     *obs.Bus

	// Finished data cursors and MasterSP assignments, reused.
	freeCursors []*cursor
	freeAssigns []*assignment

	nextInv  int64
	liveNow  int
	peakLive int
	version  int // red-black deployment version
}

// NewDeployment validates and precomputes a workflow deployment. place must
// assign every graph node to a runtime worker node.
func NewDeployment(rt *Runtime, bench *workloads.Benchmark, place map[dag.NodeID]string, opts Options) (*Deployment, error) {
	if err := bench.Validate(); err != nil {
		return nil, err
	}
	g := bench.Graph
	for _, n := range g.Nodes() {
		w, ok := place[n.ID]
		if !ok {
			return nil, fmt.Errorf("engine: node %q has no placement", n.Name)
		}
		if _, ok := rt.Nodes[w]; !ok {
			return nil, fmt.Errorf("engine: node %q placed on unknown worker %q", n.Name, w)
		}
	}
	d := &Deployment{
		rt:      rt,
		bench:   bench,
		place:   place,
		opts:    opts.withDefaults(),
		g:       g,
		sinks:   g.Sinks(),
		sources: g.Sources(),
		inputs:  map[dag.NodeID][]input{},
		outputs: map[dag.NodeID][]output{},
		master:  &proc{env: rt.Env, cost: opts.withDefaults().MasterProc},
		workers: map[string]*proc{},
	}
	if d.opts.Journal != nil {
		d.jr = d.opts.Journal
		d.liveInvs = map[int64]*invocation{}
		d.reexec = map[reexecKey][]func(){}
	}
	if d.opts.FastPath.Memoize {
		d.memo = map[uint64]bool{}
	}
	d.fastSpans = d.opts.FastPath.DirectPassing || d.opts.FastPath.Memoize
	for w := range rt.Nodes {
		d.workers[w] = &proc{env: rt.Env, cost: d.opts.WorkerProc}
		d.nodeOrder = append(d.nodeOrder, w)
	}
	sort.Strings(d.nodeOrder)
	d.conds = map[int]*expr.Expr{}
	d.switchNode = map[dag.NodeID]bool{}
	for i, e := range g.Edges() {
		if e.Cond == "" {
			continue
		}
		compiled, err := expr.Compile(e.Cond)
		if err != nil {
			return nil, fmt.Errorf("engine: edge %d condition: %w", i, err)
		}
		d.conds[i] = compiled
		d.switchNode[e.From] = true
	}
	d.resolveDataflow()
	_, d.critExec, _ = g.CriticalPath(func(n dag.Node) float64 {
		if n.Kind != dag.KindTask {
			return 0
		}
		return bench.Functions[n.Function].ExecSeconds
	})
	return d, nil
}

// resolveDataflow computes, for every task, which edge keys it reads and
// which it writes — resolving through virtual markers: a task consuming
// from a virtual node actually reads the keys written by the tasks
// upstream of that marker, and a task writing toward a virtual node serves
// every task downstream of it.
func (d *Deployment) resolveDataflow() {
	edges := d.g.Edges()
	// taskConsumers finds the effective consuming tasks past node x.
	var taskConsumers func(x dag.NodeID, seen map[dag.NodeID]bool) []dag.NodeID
	taskConsumers = func(x dag.NodeID, seen map[dag.NodeID]bool) []dag.NodeID {
		if d.g.Node(x).Kind == dag.KindTask {
			return []dag.NodeID{x}
		}
		var out []dag.NodeID
		for _, s := range d.g.Succs(x) {
			if seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, taskConsumers(s, seen)...)
		}
		return out
	}
	d.keyBase = make([]int, len(edges))
	for i, e := range edges {
		if d.g.Node(e.From).Kind != dag.KindTask {
			continue // virtual-out edges signal; data was keyed upstream
		}
		consumers := taskConsumers(e.To, map[dag.NodeID]bool{})
		d.outputs[e.From] = append(d.outputs[e.From], output{
			edgeIdx:   i,
			bytes:     e.Bytes,
			consumers: consumers,
		})
		width := d.g.Node(e.From).Width
		d.keyBase[i] = d.nKeys
		d.nKeys += width
		for _, c := range consumers {
			d.inputs[c] = append(d.inputs[c], input{edgeIdx: i, bytes: e.Bytes, replicas: width})
		}
	}
}

// CriticalExecSeconds reports the summed execution time of the critical
// path — the quantity the paper subtracts from end-to-end latency to get
// scheduling overhead (§2.3).
func (d *Deployment) CriticalExecSeconds() float64 { return d.critExec }

// MasterStats reports the master engine loop's counters.
func (d *Deployment) MasterStats() EngineStats {
	return EngineStats{Events: d.master.events, Busy: d.master.busy}
}

// WorkerStats reports a worker engine loop's counters.
func (d *Deployment) WorkerStats(worker string) EngineStats {
	p, ok := d.workers[worker]
	if !ok {
		return EngineStats{}
	}
	return EngineStats{Events: p.events, Busy: p.busy}
}

// Placement returns the node→worker map in use.
func (d *Deployment) Placement() map[dag.NodeID]string { return d.place }

// EngineMemory estimates a worker engine's peak resident memory for this
// deployment (paper §5.7): base footprint + Workflow structures for the
// sub-graph nodes placed there + State for the peak live invocations.
func (d *Deployment) EngineMemory(worker string) int64 {
	nodes := 0
	for _, w := range d.place {
		if w == worker {
			nodes++
		}
	}
	return MemoryModel(nodes, d.peakLive)
}

// Redeploy switches to a new placement (red-black: version bumps, new
// invocations use the new sub-graphs, in-flight invocations finish on the
// placement they started with, and each old version's warm containers are
// recycled by the pools' keep-alive once its invocations drain).
func (d *Deployment) Redeploy(place map[dag.NodeID]string) error {
	for _, n := range d.g.Nodes() {
		w, ok := place[n.ID]
		if !ok {
			return fmt.Errorf("engine: node %q has no placement", n.Name)
		}
		if _, ok := d.rt.Nodes[w]; !ok {
			return fmt.Errorf("engine: node %q placed on unknown worker %q", n.Name, w)
		}
	}
	d.place = place
	d.version++
	return nil
}

// Result describes one completed invocation.
type Result struct {
	ID      int64
	Start   sim.Time
	End     sim.Time
	Version int
	// Failed reports that at least one executor exhausted its retry
	// budget; downstream work was drained rather than executed.
	Failed bool
	// DeadlineExceeded reports that the invocation's deadline passed while
	// work remained: the rest of the graph was drained without running.
	// Implies Failed.
	DeadlineExceeded bool
}

// Latency reports the end-to-end invocation latency.
func (r Result) Latency() time.Duration { return (r.End - r.Start).Duration() }

// invocation tracks one in-flight workflow run.
type invocation struct {
	id      int64
	version int
	// place aliases the deployment's placement until a fault forces
	// re-placement, at which point it is cloned (ownPlace) so the
	// deployment map stays untouched.
	place     map[dag.NodeID]string
	ownPlace  bool
	start     sim.Time
	args      expr.Env
	deadline  sim.Time // absolute; 0 = none
	tenant    string   // tenant attribution; "" = untenanted
	failed    bool
	deadlined bool
	// abandoned marks an invocation orphaned by an engine crash: every
	// in-flight executor and engine-loop callback holding this object
	// bails out, and a restarted engine resumes the run on a fresh
	// invocation rebuilt from the journal.
	abandoned bool
	predsDone []int
	realIn    []int // non-skipped predecessor completions
	started   []bool
	sinksLeft int
	done      func(Result)
	// keys lists the store keys this invocation wrote, released when it
	// finishes; keyTab caches every key built for it (see keyFor).
	keys   []string
	keyTab []string
	// stepSeq counts runTask dispatches per node (durable mode only): the
	// journal's AttemptSeq, surviving replay so attempts stay monotonic.
	stepSeq []int
	// reexecs counts lost-input producer re-executions, bounded by
	// MaxReissues so repeated data loss cannot loop forever.
	reexecs int
	// Fast-path state (nil unless the matching FastPath feature is on).
	// prewarm holds containers acquired ahead of a step's trigger;
	// prewarmed marks producers whose successors were already considered.
	prewarm   map[dag.NodeID]*prewarmSet
	prewarmed []bool
	// chash caches per-node content hashes (0 = not yet computed); the
	// argsH pair caches the invocation-argument fingerprint they mix in.
	chash      []uint64
	argsH      uint64
	argsHashed bool
}

// skippedOutEdges decides which of a completed node's out-edges deliver a
// skip instead of a real state update. Without invocation arguments every
// branch runs (the paper's behaviour: containers are provisioned for all
// switch branches); with arguments, the first branch whose condition holds
// — or the first unconditional default — is taken and the rest skip.
// Evaluation errors skip the branch and are counted.
func (d *Deployment) skippedOutEdges(inv *invocation, id dag.NodeID) map[int]bool {
	if inv.args == nil || !d.switchNode[id] {
		return nil
	}
	skipped := map[int]bool{}
	taken := false
	for i := range d.g.OutDegree(id) {
		ei := d.g.OutEdge(id, i)
		compiled, conditional := d.conds[ei]
		if !conditional && d.g.Edge(ei).Cond == "" {
			// Part of a switch (the node has conditional siblings) with no
			// condition of its own: a default branch.
			if taken {
				skipped[ei] = true
			} else {
				taken = true
			}
			continue
		}
		if taken {
			skipped[ei] = true
			continue
		}
		ok, err := compiled.EvalBool(inv.args)
		if err != nil {
			skipped[ei] = true
			continue
		}
		if ok {
			taken = true
		} else {
			skipped[ei] = true
		}
	}
	return skipped
}

// execJitter perturbs a task's execution time by ±15%, deterministically
// per (invocation, node): real functions are not clockwork, and the
// variation staggers the transfer bursts that parallel stages emit.
func execJitter(invID int64, node dag.NodeID) float64 {
	r := sim.NewRand(uint64(invID)<<20 ^ uint64(node) ^ 0x9e3779b9)
	return 0.85 + 0.3*r.Float64()
}

// key names the store object one edge replica carries:
// "<workflow>/<invocation>/e<edge>.<replica>". It appends with strconv, not
// fmt: fmt's printer pool drops entries at random under the race detector,
// which would make dispatch allocation counts vary from run to run.
func (d *Deployment) key(inv *invocation, edgeIdx, replica int) string {
	b := make([]byte, 0, 64)
	b = append(b, d.bench.Name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, inv.id, 10)
	b = append(b, "/e"...)
	b = strconv.AppendInt(b, int64(edgeIdx), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(replica), 10)
	return string(b)
}

// keyFor returns the key of one edge replica, building it on first use
// for the invocation: the producer's write and every consumer's read share
// one string.
func (d *Deployment) keyFor(inv *invocation, edgeIdx, replica int) string {
	if inv.keyTab == nil {
		inv.keyTab = make([]string, d.nKeys)
	}
	slot := &inv.keyTab[d.keyBase[edgeIdx]+replica]
	if *slot == "" {
		*slot = d.key(inv, edgeIdx, replica)
	}
	return *slot
}

// Invoke starts one workflow invocation; done fires when every sink has
// completed, after which the invocation's intermediate data is released
// (the paper's per-invocation State cleanup).
func (d *Deployment) Invoke(done func(Result)) {
	d.InvokeOpts(InvokeOptions{}, done)
}

// InvokeOptions tunes one invocation.
type InvokeOptions struct {
	// Args are the invocation's input arguments: switch steps evaluate
	// their branch conditions against them and run only the matching
	// branch. With nil Args every branch runs.
	Args map[string]any
	// Deadline is the absolute virtual instant after which the invocation's
	// remaining work is cancelled: untriggered steps drain as skips, queued
	// container acquisitions are withdrawn, and in-flight executors abandon
	// at the next phase boundary — no zombie work consumes containers after
	// the client has given up. The invocation still completes (promptly),
	// with Failed and DeadlineExceeded set. 0 = no deadline.
	Deadline sim.Time
	// Tenant attributes the invocation to a tenant for weighted-fair
	// container queueing, per-tenant observability, and federation handoff.
	// "" = untenanted.
	Tenant string
}

// InvokeOpts starts an invocation with per-invocation options.
func (d *Deployment) InvokeOpts(opts InvokeOptions, done func(Result)) {
	d.InvokeWithID(d.nextInv, opts, done)
}

// InvokeWithID starts an invocation under an externally assigned ID — the
// federation routes invocations to owner engines by consistent hashing on
// a globally unique ID, so the ID is allocated above the engine. nextInv
// advances past id, keeping locally assigned IDs collision-free.
func (d *Deployment) InvokeWithID(id int64, opts InvokeOptions, done func(Result)) {
	if done == nil {
		done = func(Result) {}
	}
	var env expr.Env
	if opts.Args != nil {
		env = expr.Env(opts.Args)
	}
	inv := &invocation{
		id:        id,
		version:   d.version,
		place:     d.place,
		start:     d.rt.Env.Now(),
		args:      env,
		deadline:  opts.Deadline,
		tenant:    opts.Tenant,
		predsDone: make([]int, d.g.Len()),
		realIn:    make([]int, d.g.Len()),
		started:   make([]bool, d.g.Len()),
		sinksLeft: len(d.sinks),
		done:      done,
	}
	if id >= d.nextInv {
		d.nextInv = id + 1
	}
	d.liveNow++
	if d.liveNow > d.peakLive {
		d.peakLive = d.liveNow
	}
	if d.jr != nil {
		inv.stepSeq = make([]int, d.g.Len())
		d.liveInvs[inv.id] = inv
		if d.down {
			// The engine process is down: the request is durably queued
			// (registered) and dispatches when the engine restarts.
			d.pubInvocation(inv, false)
			return
		}
	}
	d.pubInvocation(inv, false)
	switch d.opts.Mode {
	case ModeWorkerSP:
		d.invokeWorkerSP(inv)
	case ModeMasterSP:
		d.invokeMasterSP(inv)
	default:
		panic(fmt.Sprintf("engine: unknown mode %v", d.opts.Mode))
	}
}

func (d *Deployment) finishInvocation(inv *invocation) {
	d.drainPrewarms(inv)
	if d.jr != nil {
		delete(d.liveInvs, inv.id)
	}
	d.liveNow--
	for _, k := range inv.keys {
		d.rt.Store.Delete(k)
	}
	if inv.failed {
		d.failedInv++
	}
	d.pubInvocation(inv, true)
	inv.done(Result{
		ID:               inv.id,
		Start:            inv.start,
		End:              d.rt.Env.Now(),
		Version:          inv.version,
		Failed:           inv.failed,
		DeadlineExceeded: inv.deadlined,
	})
}

// deadlineExceeded reports whether inv carries a deadline that has passed.
func (d *Deployment) deadlineExceeded(inv *invocation) bool {
	return inv.deadline > 0 && d.rt.Env.Now() >= inv.deadline
}

// failDeadline marks inv dead-on-deadline at step id (-1 = invocation
// level), counting and publishing the abandonment. The caller then drains
// the step like a skip, so the workflow completes instead of hanging.
func (d *Deployment) failDeadline(inv *invocation, id dag.NodeID, where string) {
	inv.failed = true
	inv.deadlined = true
	d.deadlineCount++
	d.pubDeadline(inv, id, where)
}

// ---------------------------------------------------------------------------
// Task body shared by both patterns: container acquire → input fetch →
// execute → output store → release.

// runTask executes one control-plane node. A plain task is one container
// acquire → input fetch → execute → output store → release. A foreach node
// of width W maps to W data-plane executors (the paper's Map(v)): each
// acquires its own container, fetches the full inputs, executes once, and
// writes its own output replica; the node completes when all executors do.
func (d *Deployment) runTask(inv *invocation, id dag.NodeID, onDone func(failed bool)) {
	node := d.g.Node(id)
	if node.Kind == dag.KindVirtual {
		// Virtual markers complete instantly; they exist for atomicity and
		// trigger bookkeeping only.
		d.rt.Env.Schedule(0, func() { onDone(false) })
		return
	}
	complete := onDone
	if d.jr != nil {
		inv.stepSeq[id]++
		attemptSeq := inv.stepSeq[id]
		complete = func(failed bool) {
			if failed {
				onDone(true)
				return
			}
			d.commitStep(inv, id, attemptSeq, onDone)
		}
	}
	if d.opts.FastPath.Memoize {
		mkey := d.contentHash(inv, id)
		if d.memo[mkey] {
			// A hit replays the step's outputs without acquiring a container
			// or executing; in durable mode `complete` still routes through
			// commitStep, so crash replay skips the step like any other.
			d.memoHits++
			d.runMemoHit(inv, id, complete)
			return
		}
		d.memoMisses++
		inner := complete
		complete = func(failed bool) {
			if !failed && !inv.abandoned && !inv.deadlined {
				d.memo[mkey] = true
			}
			inner(failed)
		}
	}
	if node.Width == 1 {
		d.startAttempt(inv, id, 0, 0, &execState{}, complete)
		return
	}
	j := &join{pending: node.Width, complete: complete}
	done := j.done
	for replica := 0; replica < node.Width; replica++ {
		d.startAttempt(inv, id, replica, 0, &execState{}, done)
	}
}

// join completes a foreach step once every one of its executors has; the
// step fails if any executor did.
type join struct {
	pending  int
	failed   bool
	complete func(failed bool)
}

func (j *join) done(failed bool) {
	j.failed = j.failed || failed
	j.pending--
	if j.pending == 0 {
		j.complete(j.failed)
	}
}

// ErrReissuesExhausted reports an executor that burned its entire fault
// re-issue budget: the step failed permanently and the invocation drained
// with Failed set. It is an error so callers (gateway, tests) can match it
// with errors.As; FailureStats.Exhausted carries one per exhausted step.
type ErrReissuesExhausted struct {
	Workflow string `json:"workflow"`
	Inv      int64  `json:"inv"`
	Step     string `json:"step"`
	Attempts int    `json:"attempts"` // re-issues spent before giving up (== MaxReissues)
}

func (e *ErrReissuesExhausted) Error() string {
	return fmt.Sprintf("engine: step %q of %s invocation %d exhausted its re-issue budget after %d attempts",
		e.Step, e.Workflow, e.Inv, e.Attempts)
}

// FailureStats aggregates the deployment's failure and recovery counters.
type FailureStats struct {
	Timeouts          int64 // executor attempts abandoned by the task timeout
	Reissues          int64 // fault-driven re-issues (timeouts + node deaths)
	Replacements      int64 // tasks re-placed off dead nodes
	FailedInvocations int64 // invocations that completed with Failed set
	DeadlineExceeded  int64 // work abandoned at the invocation deadline
	Shed              int64 // executor acquisitions rejected by bounded queues
	// ReissuesExhausted counts executors that burned the whole re-issue
	// budget; Exhausted carries the typed record for each (step name,
	// attempt count), in failure order.
	ReissuesExhausted int64
	Exhausted         []ErrReissuesExhausted
}

// FailureStatsSnapshot reports current failure/recovery counters.
func (d *Deployment) FailureStatsSnapshot() FailureStats {
	exhausted := make([]ErrReissuesExhausted, len(d.exhausted))
	copy(exhausted, d.exhausted)
	return FailureStats{
		Timeouts:          d.timeoutCount,
		Reissues:          d.reissueCount,
		Replacements:      d.replaceCount,
		FailedInvocations: d.failedInv,
		DeadlineExceeded:  d.deadlineCount,
		Shed:              d.shedCount,
		ReissuesExhausted: int64(len(d.exhausted)),
		Exhausted:         exhausted,
	}
}

// fetchInputs downloads the task's input keys one after another: a single
// container's runtime fetches its inputs sequentially, which is what keeps
// the aggregate store load linear in bytes rather than quadratic in
// concurrent edges. Concurrency across containers is still unbounded.
// Under DataNone there is nothing to fetch and the caller skips it.
func (d *Deployment) fetchInputs(inv *invocation, id dag.NodeID, workerID string, next func()) {
	d.newCursor(inv, id, 0, workerID, next).fetch()
}

// storeOutputs uploads the task's output keys sequentially (one container,
// one upload stream), choosing per edge between local memory and the
// remote store based on the consumers' placement. With direct passing
// enabled, an edge whose consumer placement is known (and healthy, and not
// owed a replicated durable copy) is pushed straight into the consumer
// workers' memory tiers instead; the store hop remains the fallback.
func (d *Deployment) storeOutputs(inv *invocation, id dag.NodeID, replica int, workerID string, next func()) {
	if d.opts.Data == DataNone {
		next()
		return
	}
	d.newCursor(inv, id, replica, workerID, next).store()
}

// cursor walks one executor's input fetches or output stores, one store
// operation at a time. Its store callbacks are bound once, when the cursor
// is first made, and it goes back on the deployment's free list as it
// hands over to next: its own store operations have all completed then.
type cursor struct {
	d        *Deployment
	inv      *invocation
	id       dag.NodeID
	replica  int // the output replica being stored
	workerID string
	next     func()
	i, rep   int      // position: input (or output) index, producer replica
	key      string   // the key of the operation under way
	opStart  sim.Time // when the output operation under way began
	// consumers is the reused list of the current output's consumer
	// workers; Hybrid.Put reads it only during the call.
	consumers []string

	// Bound once.
	gotFn    func(size int64, ok bool, err error)
	putFn    func(store.Location, error)
	pushedFn func()
}

// newCursor returns a finished cursor for reuse, or a new one with its
// callbacks bound to it.
func (d *Deployment) newCursor(inv *invocation, id dag.NodeID, replica int, workerID string, next func()) *cursor {
	var c *cursor
	if n := len(d.freeCursors); n > 0 {
		c = d.freeCursors[n-1]
		d.freeCursors[n-1] = nil
		d.freeCursors = d.freeCursors[:n-1]
	} else {
		c = &cursor{d: d}
		c.gotFn = c.gotInput
		c.putFn = c.put
		c.pushedFn = c.pushed
	}
	c.inv, c.id, c.replica, c.workerID, c.next = inv, id, replica, workerID, next
	c.i, c.rep = 0, 0
	return c
}

// finish releases the cursor and hands over to its next phase.
func (c *cursor) finish() {
	next := c.next
	c.inv, c.next, c.workerID, c.key = nil, nil, "", ""
	c.d.freeCursors = append(c.d.freeCursors, c)
	next()
}

// fetch issues the next input fetch, or finishes. A dead deadline (or an
// engine crash) stops issuing further input fetches; the caller's
// post-fetch checks abandon the attempt.
func (c *cursor) fetch() {
	d, inv := c.d, c.inv
	ins := d.inputs[c.id]
	if c.i == len(ins) || d.deadlineExceeded(inv) || inv.abandoned {
		c.finish()
		return
	}
	c.key = d.keyFor(inv, ins[c.i].edgeIdx, c.rep)
	d.rt.Store.Get(c.workerID, c.key, c.gotFn)
}

// gotInput continues after one input fetch. Breaker fast-fails and misses
// alike continue the chain: a missing input is the modeled runtime's
// problem, not the scheduler's, and the fast-fail already bought the
// latency win. Durable mode is the exception — a clean miss there means a
// node death lost the producer's only copy, so the producer re-executes
// (its commit is idempotent) and the fetch retries once before moving on.
func (c *cursor) gotInput(_ int64, ok bool, err error) {
	d, inv := c.d, c.inv
	if d.jr != nil && !ok && err == nil && !inv.abandoned &&
		inv.reexecs < d.opts.MaxReissues {
		producer := d.g.Edge(d.inputs[c.id][c.i].edgeIdx).From
		inv.reexecs++
		d.lostInputs++
		d.reexecProducer(inv, producer, func() {
			d.rt.Store.Get(c.workerID, c.key, func(int64, bool, error) { c.advance() })
		})
		return
	}
	c.advance()
}

// advance moves past the fetched input replica.
func (c *cursor) advance() {
	c.rep++
	if c.rep >= c.d.inputs[c.id][c.i].replicas {
		c.i++
		c.rep = 0
	}
	c.fetch()
}

// store issues the next output operation, or finishes. A dead deadline (or
// an engine crash) stops issuing further output puts; downstream consumers
// drain as skips / are re-dispatched by replay and never depend on the
// missing keys. So does a finished invocation (no sinks left): a stale
// attempt still storing when its step failed must not write keys after
// the invocation released them.
func (c *cursor) store() {
	d, inv := c.d, c.inv
	outs := d.outputs[c.id]
	if c.i == len(outs) || d.deadlineExceeded(inv) || inv.abandoned || inv.sinksLeft == 0 {
		c.finish()
		return
	}
	out := outs[c.i]
	c.i++
	c.consumers = c.consumers[:0]
	for _, w := range out.consumers {
		c.consumers = append(c.consumers, inv.place[w])
	}
	c.key = d.keyFor(inv, out.edgeIdx, c.replica)
	inv.keys = append(inv.keys, c.key)
	c.opStart = d.rt.Env.Now()
	if targets := d.directTargets(inv, out); targets != nil {
		if d.rt.Store.PushDirect(c.workerID, c.key, out.bytes, targets, c.pushedFn) {
			d.directPushes++
			return
		}
		d.directFallbacks++
	}
	d.rt.Store.Put(c.workerID, c.key, out.bytes, c.consumers, c.putFn)
}

func (c *cursor) pushed() {
	c.d.span(c.inv, c.id, c.replica, "direct", c.opStart)
	c.store()
}

func (c *cursor) put(store.Location, error) {
	if c.d.fastSpans {
		c.d.span(c.inv, c.id, c.replica, "store", c.opStart)
	}
	c.store()
}
