// Package obs is the unified observability layer: a typed event bus that
// every substrate (engine, cluster, network, store, scheduler) publishes
// to, a labeled metrics registry rendered in Prometheus text exposition
// format, a trace log with a full-system Chrome trace export, and a
// critical-path analyzer that attributes an invocation's end-to-end
// latency to its components.
//
// The bus is nil-safe: every substrate holds a *Bus and publishes through
// it unconditionally; when the bus is nil (no observer attached) a publish
// is a single pointer comparison, so detached runs pay nothing. Because
// the whole simulation is single-threaded, the bus needs no locking.
package obs

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Component is one bucket of the critical-path latency attribution — where
// a slice of end-to-end time went.
type Component uint8

const (
	// CompAcquire is container acquisition: warm-pool wait, cold start, or
	// queueing at the per-function scale limit.
	CompAcquire Component = iota
	// CompFetch is input download from FaaStore or the remote database.
	CompFetch
	// CompExec is function compute (including processor-sharing slowdown).
	CompExec
	// CompStore is output upload.
	CompStore
	// CompTransfer is control-plane traffic: state updates, task
	// assignments, and sink reports crossing the fabric.
	CompTransfer
	// CompQueue is time spent waiting for a serialized engine loop slot.
	CompQueue
	// CompSchedule is engine-loop processing time (trigger checks, task
	// marshalling) — the overhead WorkerSP decentralizes.
	CompSchedule
	// CompRecovery is fault-recovery overhead: the dead time of a failed or
	// timed-out executor attempt plus the re-issue hop and backoff before
	// the replacement attempt starts.
	CompRecovery
	// CompReplay is durable-recovery overhead: the dead time between an
	// engine crash and the restarted engine re-dispatching the uncommitted
	// frontier after replaying the journal.
	CompReplay
	// CompDirect is a direct producer→consumer output push: the fabric
	// transfer that replaces the Put-to-remote + Get store hop when the
	// consumer's placement is already known at producer completion.
	CompDirect
	// CompPrewarmOverlap is the residual (non-overlapped) tail of a
	// DAG-lookahead container pre-warm: the acquisition was issued while the
	// step's last predecessor was still executing, and only the part that
	// outlived the predecessor shows up on the critical path.
	CompPrewarmOverlap
	// CompMemoHit is a content-addressed memoization hit: the cache lookup
	// that replaces a step's execution when (function, input hash) was seen
	// before.
	CompMemoHit
	// CompHandoff is federation failover overhead: the dead time between an
	// owner engine's last durable commit for a step and the successor engine
	// re-dispatching it after claiming the shard and replaying the journal.
	CompHandoff

	numComponents
)

func (c Component) String() string {
	switch c {
	case CompAcquire:
		return "acquire"
	case CompFetch:
		return "fetch"
	case CompExec:
		return "exec"
	case CompStore:
		return "store"
	case CompTransfer:
		return "transfer"
	case CompQueue:
		return "queue"
	case CompSchedule:
		return "schedule"
	case CompRecovery:
		return "recovery"
	case CompReplay:
		return "replay"
	case CompDirect:
		return "direct"
	case CompPrewarmOverlap:
		return "prewarm"
	case CompMemoHit:
		return "memo"
	case CompHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// MarshalText serializes the component by name, so JSON artifacts
// (snapshots, gateway responses) read "exec" rather than an opaque index.
func (c Component) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a component name written by MarshalText.
func (c *Component) UnmarshalText(text []byte) error {
	name := string(text)
	for _, cand := range Components() {
		if cand.String() == name {
			*c = cand
			return nil
		}
	}
	return fmt.Errorf("obs: unknown component %q", name)
}

// Components lists every attribution bucket in display order.
func Components() []Component {
	out := make([]Component, 0, numComponents)
	for c := Component(0); c < numComponents; c++ {
		out = append(out, c)
	}
	return out
}

// Segment is one contiguous slice of virtual time attributed to a
// component. Chains of segments are the raw material of the critical-path
// analyzer: each chain's segments abut (Start of one equals End of the
// previous), so summing them never double-counts.
type Segment struct {
	Comp  Component
	Start sim.Time
	End   sim.Time
}

// Duration reports the segment's width.
func (s Segment) Duration() time.Duration { return (s.End - s.Start).Duration() }

// Event is anything published on the bus. When reports the virtual instant
// the event describes (for spans, the end instant).
type Event interface {
	Kind() string
	When() sim.Time
}

// ---------------------------------------------------------------------------
// Engine events.

// StepState is a workflow step's lifecycle transition.
type StepState uint8

const (
	// StepTriggered fires when a step's predecessors are satisfied and an
	// engine starts it.
	StepTriggered StepState = iota
	// StepCompleted fires when all of a step's executors finished.
	StepCompleted
	// StepSkipped fires when a switch resolution (or upstream failure)
	// drains the step without running it.
	StepSkipped
	// StepFailed fires when an executor exhausts its re-issue budget.
	StepFailed
	// The slot after StepFailed is reserved: it was a retired container-crash
	// retry state. StepEvent.State is serialised as a number, so every later
	// state keeps its value.
	_
	// StepTimedOut fires when an executor attempt exceeds the task timeout
	// (typically because its node died mid-flight).
	StepTimedOut
	// StepReplaced fires when a task stranded on a dead node is re-placed
	// onto a surviving worker.
	StepReplaced
	// StepCommitted fires when a step's completion record becomes durable
	// in the workflow journal.
	StepCommitted
	// StepReplayed fires when a restarted engine re-dispatches a step from
	// the journal-rebuilt frontier instead of the normal trigger path.
	StepReplayed
)

func (s StepState) String() string {
	switch s {
	case StepTriggered:
		return "triggered"
	case StepCompleted:
		return "completed"
	case StepSkipped:
		return "skipped"
	case StepFailed:
		return "failed"
	case StepTimedOut:
		return "timed_out"
	case StepReplaced:
		return "replaced"
	case StepCommitted:
		return "committed"
	case StepReplayed:
		return "replayed"
	default:
		return fmt.Sprintf("StepState(%d)", int(s))
	}
}

// StepEvent is a workflow step state transition.
type StepEvent struct {
	Workflow string
	Inv      int64
	Node     int // dag.NodeID of the step
	Name     string
	Worker   string
	State    StepState
	At       sim.Time
}

func (e StepEvent) Kind() string   { return "step" }
func (e StepEvent) When() sim.Time { return e.At }

// PhaseEvent is one executor phase span (acquire, fetch, exec, store).
type PhaseEvent struct {
	Workflow string
	Inv      int64
	Node     int
	Name     string // step name, without replica suffix
	Replica  int
	Comp     Component // CompAcquire | CompFetch | CompExec | CompStore
	Worker   string
	Start    sim.Time
	End      sim.Time
}

func (e PhaseEvent) Kind() string   { return "phase" }
func (e PhaseEvent) When() sim.Time { return e.End }

// InvocationEvent marks an invocation's start or end.
type InvocationEvent struct {
	Workflow string
	Inv      int64
	Mode     string // WorkerSP | MasterSP
	Tenant   string // tenant attribution; "" = untenanted
	End      bool
	Failed   bool
	At       sim.Time
}

func (e InvocationEvent) Kind() string   { return "invocation" }
func (e InvocationEvent) When() sim.Time { return e.At }

// TriggerChainEvent records the full causal chain from one step's
// completion (or the invocation's arrival, From = -1) to a successor's
// trigger evaluation (or the invocation's completion, To = -1): engine
// queue waits, engine processing slots, and fabric transfers, as abutting
// segments. The analyzer stitches binding chains into the critical path.
type TriggerChainEvent struct {
	Workflow string
	Inv      int64
	From     int // dag.NodeID, -1 = invocation ingress
	To       int // dag.NodeID, -1 = invocation completion
	Segments []Segment
}

func (e TriggerChainEvent) Kind() string { return "trigger-chain" }
func (e TriggerChainEvent) When() sim.Time {
	if len(e.Segments) == 0 {
		return 0
	}
	return e.Segments[len(e.Segments)-1].End
}

// ---------------------------------------------------------------------------
// Cluster events.

// ContainerOp is a container lifecycle transition.
type ContainerOp uint8

const (
	// ContainerColdStart is a new container being provisioned.
	ContainerColdStart ContainerOp = iota
	// ContainerWarmReuse is a warm container being handed to a request.
	ContainerWarmReuse
	// ContainerQueued is a request waiting for the scale limit or memory.
	ContainerQueued
	// ContainerEvicted is a warm container aging out of the keep-alive.
	ContainerEvicted
	// ContainerDestroyed is a container lost with its failed node.
	ContainerDestroyed
	// ContainerReleased is a container going idle-warm after an invocation
	// (no waiter took it over).
	ContainerReleased
	// ContainerShed is an acquisition rejected because the per-function
	// waiting queue was at its bound (backpressure fast-fail).
	ContainerShed
	// ContainerDeadline is a queued acquisition abandoned because its
	// deadline expired before a container freed up.
	ContainerDeadline
)

func (o ContainerOp) String() string {
	switch o {
	case ContainerColdStart:
		return "cold_start"
	case ContainerWarmReuse:
		return "warm_reuse"
	case ContainerQueued:
		return "queued"
	case ContainerEvicted:
		return "evicted"
	case ContainerDestroyed:
		return "destroyed"
	case ContainerReleased:
		return "released"
	case ContainerShed:
		return "shed"
	case ContainerDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("ContainerOp(%d)", int(o))
	}
}

// ContainerEvent is a container lifecycle transition on one node, with the
// node's occupancy at that instant (for counter tracks) and the function
// pool's warm/queued depth (for the utilization analyzer).
type ContainerEvent struct {
	Node       string
	Function   string
	Op         ContainerOp
	Containers int   // live containers after the op
	MemUsed    int64 // bytes held by containers after the op
	Warm       int   // idle warm containers for Function after the op
	Queued     int   // acquisitions waiting for Function after the op
	At         sim.Time
}

func (e ContainerEvent) Kind() string   { return "container" }
func (e ContainerEvent) When() sim.Time { return e.At }

// NodeCapacityEvent describes one worker node's hardware. It is published
// when a bus is attached to the node, so any log holding node activity also
// holds the capacities needed to normalize it.
type NodeCapacityEvent struct {
	Node         string
	Cores        int
	MemBytes     int64 // DRAM
	ContainerMem int64 // per-container memory reservation
	At           sim.Time
}

func (e NodeCapacityEvent) Kind() string   { return "node-capacity" }
func (e NodeCapacityEvent) When() sim.Time { return e.At }

// TaskEvent is a CPU slot transition: an Exec starting or finishing on a
// node, with the number of running tasks after the transition. Together
// with NodeCapacityEvent.Cores it yields the node's core-occupancy
// timeline (busy cores = min(running, cores) under processor sharing).
type TaskEvent struct {
	Node    string
	Running int // tasks in flight after this transition
	Start   bool
	At      sim.Time
}

func (e TaskEvent) Kind() string   { return "task" }
func (e TaskEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Network events.

// FlowEvent marks a bulk transfer starting or finishing. End events carry
// the achieved rate (total bytes over the flow's lifetime, which max-min
// fair sharing may have throttled well below link capacity).
type FlowEvent struct {
	ID     int64
	From   string
	To     string
	Bytes  int64
	Done   bool
	Rate   float64 // bytes/sec achieved; 0 on start events
	Active int     // flows in flight after this event
	At     sim.Time
}

func (e FlowEvent) Kind() string   { return "flow" }
func (e FlowEvent) When() sim.Time { return e.At }

// LinkCapacityEvent describes one node's access-link capacities. The
// fabric publishes it for every node when a bus is attached and again
// whenever a capacity changes mid-run (the wondershaper throttling), so
// achieved flow rates can always be normalized against capacity.
type LinkCapacityEvent struct {
	Node       string
	EgressBps  float64
	IngressBps float64
	At         sim.Time
}

func (e LinkCapacityEvent) Kind() string   { return "link-capacity" }
func (e LinkCapacityEvent) When() sim.Time { return e.At }

// MsgEvent is one small control message crossing the fabric.
type MsgEvent struct {
	From  string
	To    string
	Bytes int64
	At    sim.Time
}

func (e MsgEvent) Kind() string   { return "msg" }
func (e MsgEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Store events.

// StoreTier says which storage tier served an operation.
type StoreTier uint8

const (
	// TierMemory is a worker-local FaaStore in-memory store.
	TierMemory StoreTier = iota
	// TierRemote is the remote database on the storage node.
	TierRemote
)

func (t StoreTier) String() string {
	if t == TierMemory {
		return "memory"
	}
	return "remote"
}

// StoreEvent is one completed storage operation.
type StoreEvent struct {
	Op     string // "get" | "put" | "push" (direct producer→consumer)
	Key    string
	Worker string // the worker issuing the op
	Tier   StoreTier
	Bytes  int64
	Hit    bool // gets: key existed; puts: always true
	Start  sim.Time
	End    sim.Time
}

func (e StoreEvent) Kind() string   { return "store" }
func (e StoreEvent) When() sim.Time { return e.End }

// ---------------------------------------------------------------------------
// Scheduler events.

// PlacementGroup summarizes one function group of a placement decision.
type PlacementGroup struct {
	Worker string
	Nodes  int
	Demand float64
}

// PlacementEvent is one Graph Scheduler decision.
type PlacementEvent struct {
	Workflow       string
	Groups         []PlacementGroup
	Iterations     int
	LocalizedBytes int64
	At             sim.Time
}

func (e PlacementEvent) Kind() string   { return "placement" }
func (e PlacementEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Fault events.

// NodeFaultEvent marks a worker node going down or recovering.
type NodeFaultEvent struct {
	Node string
	Down bool // true = failure, false = recovery
	At   sim.Time
}

func (e NodeFaultEvent) Kind() string   { return "node-fault" }
func (e NodeFaultEvent) When() sim.Time { return e.At }

// LinkFaultEvent marks a node's access link being degraded (Factor < 1),
// partitioned (Factor == 0), or restored (Factor == 1).
type LinkFaultEvent struct {
	Node   string
	Factor float64 // capacity multiplier now in effect
	At     sim.Time
}

func (e LinkFaultEvent) Kind() string   { return "link-fault" }
func (e LinkFaultEvent) When() sim.Time { return e.At }

// StoreFaultEvent marks the remote storage backend going unavailable or
// coming back (queued operations drain on recovery).
type StoreFaultEvent struct {
	Down bool
	At   sim.Time
}

func (e StoreFaultEvent) Kind() string   { return "store-fault" }
func (e StoreFaultEvent) When() sim.Time { return e.At }

// EngineFaultEvent marks a workflow engine process crashing or restarting.
// On restart, Replayed counts journal-committed steps skipped and
// Redispatched counts frontier steps re-issued.
type EngineFaultEvent struct {
	Workflow     string
	Down         bool // true = crash, false = restart
	Replayed     int
	Redispatched int
	At           sim.Time
}

func (e EngineFaultEvent) Kind() string   { return "engine-fault" }
func (e EngineFaultEvent) When() sim.Time { return e.At }

// RecoveryEvent records one executor re-issue after a fault: the reason
// (node-down, timeout, crash), the worker the attempt was stranded on, the
// worker the replacement attempt runs on (same string when no re-placement
// happened), and the backoff delay paid before re-issuing. Start is the
// failed attempt's start; At is the instant the replacement attempt begins,
// so At-Start is the recovery overhead the critical path may absorb.
type RecoveryEvent struct {
	Workflow  string
	Inv       int64
	Node      int // dag.NodeID of the step
	Name      string
	Replica   int
	Reason    string // "node-down" | "timeout" | "crash"
	OldWorker string
	NewWorker string
	Reissue   int // 1-based re-issue counter for this executor
	Backoff   time.Duration
	Start     sim.Time
	At        sim.Time
}

func (e RecoveryEvent) Kind() string   { return "recovery" }
func (e RecoveryEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Overload-control events.

// AdmissionEvent records one admission-control decision: a workflow start
// accepted or rejected by the token bucket or the concurrent-workflow cap,
// globally or by the requesting tenant's weighted slice of either.
type AdmissionEvent struct {
	Workflow   string
	Tenant     string // tenant attribution; "" = untenanted
	Admitted   bool
	Reason     string        // "ok" | "rate" | "concurrency" | "tenant-rate" | "tenant-concurrency"
	Live       int           // admitted workflows in flight after the decision
	TenantLive int           // the tenant's admitted workflows in flight after the decision
	RetryAfter time.Duration // suggested client backoff on rejection; 0 when admitted
	At         sim.Time
}

func (e AdmissionEvent) Kind() string   { return "admission" }
func (e AdmissionEvent) When() sim.Time { return e.At }

// AdmissionReleaseEvent records one admitted workflow returning its
// concurrency slot, closing the interval opened by the matching admitted
// AdmissionEvent — occupancy timelines are reconstructible from the pair.
type AdmissionReleaseEvent struct {
	Workflow   string
	Tenant     string        // tenant attribution; "" = untenanted
	Live       int           // admitted workflows in flight after the release
	TenantLive int           // the tenant's admitted workflows in flight after the release
	Held       time.Duration // admit → release holding time
	At         sim.Time
}

func (e AdmissionReleaseEvent) Kind() string   { return "admission-release" }
func (e AdmissionReleaseEvent) When() sim.Time { return e.At }

// TenantQueueEvent records a tenant-attributed transition in a node's
// per-function Acquire queue: a waiter joining, being granted a container,
// shed at admission to the queue, or withdrawn by deadline or fencing.
// Published only for tenant-labelled waiters, so untenanted event streams
// are unchanged.
type TenantQueueEvent struct {
	Node     string
	Function string
	Tenant   string
	Op       string // "enqueue" | "grant" | "shed" | "deadline" | "fence"
	Queued   int    // the tenant's queued waiters on the pool after the transition
	At       sim.Time
}

func (e TenantQueueEvent) Kind() string   { return "tenant-queue" }
func (e TenantQueueEvent) When() sim.Time { return e.At }

// DeadlineEvent records work abandoned because its invocation deadline
// passed: a step drained before triggering, a queued acquisition withdrawn,
// or an executor phase cut short. Where names the point of abandonment.
type DeadlineEvent struct {
	Workflow string
	Inv      int64
	Node     int    // dag.NodeID of the step; -1 when invocation-level
	Name     string // step name; "" when invocation-level
	Where    string // "trigger" | "acquire" | "fetch" | "exec" | "store" | "dispatch"
	Deadline sim.Time
	At       sim.Time
}

func (e DeadlineEvent) Kind() string   { return "deadline" }
func (e DeadlineEvent) When() sim.Time { return e.At }

// BreakerEvent records a store circuit breaker state transition. Failures
// is the consecutive-failure count at the instant of the transition.
type BreakerEvent struct {
	Backend  string // "remote"
	State    string // "closed" | "open" | "half_open"
	Failures int
	At       sim.Time
}

func (e BreakerEvent) Kind() string   { return "breaker" }
func (e BreakerEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Federation events.

// LeaseEvent records one membership-table lease transition for an engine:
// a renewal pushing Expiry forward, or the failure detector observing the
// lease expired (Renewed=false). Expired leases trigger shard claims.
type LeaseEvent struct {
	Engine  string
	Renewed bool // true = renewal, false = detector saw it expired
	Expiry  sim.Time
	At      sim.Time
}

func (e LeaseEvent) Kind() string   { return "lease" }
func (e LeaseEvent) When() sim.Time { return e.At }

// ShardClaimEvent records a successor engine claiming one shard from an
// engine whose lease expired. Epoch is the shard's new fencing epoch; every
// dispatch or journal append stamped with an older epoch is rejected from
// this instant on. Invocations counts live invocations adopted with the
// shard.
type ShardClaimEvent struct {
	Shard       int
	From        string
	To          string
	Epoch       int64
	Invocations int
	At          sim.Time
}

func (e ShardClaimEvent) Kind() string   { return "shard-claim" }
func (e ShardClaimEvent) When() sim.Time { return e.At }

// FenceEvent records an epoch check rejecting a stale engine's late action:
// a dispatch, container acquire, executor phase boundary, or journal
// append/sync issued by an engine that no longer owns the invocation's
// shard. Where names the rejection point.
type FenceEvent struct {
	Workflow string
	Engine   string // the fenced (stale) engine
	Inv      int64
	Step     int    // dag.NodeID; -1 when not step-scoped
	Where    string // "dispatch" | "acquire" | "exec" | "store" | "append" | "sync"
	Epoch    int64  // the shard's current epoch that fenced the action
	At       sim.Time
}

func (e FenceEvent) Kind() string   { return "fence" }
func (e FenceEvent) When() sim.Time { return e.At }

// HandoffEvent records one completed shard handoff: the successor read the
// claimed invocations' journals, skipped committed steps, and re-dispatched
// the uncommitted cut. Expired is the victim's lease-expiry instant, Start
// the claim instant, At the instant adoption (replay + re-dispatch) was
// issued — so At-Expired is the detector + replay cost and At-Start the
// replay cost alone.
type HandoffEvent struct {
	Shard        int
	From         string
	To           string
	Epoch        int64
	Adopted      int // live invocations moved to the successor
	Replayed     int // committed steps skipped across adopted invocations
	Redispatched int // uncommitted frontier steps re-issued
	Expired      sim.Time
	Start        sim.Time
	At           sim.Time
}

func (e HandoffEvent) Kind() string   { return "handoff" }
func (e HandoffEvent) When() sim.Time { return e.At }

// ---------------------------------------------------------------------------
// Bus.

// Bus fans events out to subscribers. A nil *Bus is valid and inert, so
// substrates publish unconditionally and detached runs stay zero-cost.
type Bus struct {
	subs []func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a handler for every subsequent event.
func (b *Bus) Subscribe(fn func(Event)) {
	if fn == nil {
		panic("obs: nil subscriber")
	}
	b.subs = append(b.subs, fn)
}

// Publish delivers ev to every subscriber. Safe on a nil bus.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	for _, s := range b.subs {
		s(ev)
	}
}

// Active reports whether publishing would reach any subscriber. Substrates
// may use it to skip building expensive event payloads.
func (b *Bus) Active() bool { return b != nil && len(b.subs) > 0 }
