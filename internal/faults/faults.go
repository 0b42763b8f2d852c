// Package faults injects deterministic failures into a running simulation:
// node deaths (every container destroyed, in-flight work aborted, warm
// pools lost until recovery), network link degradation or partition, and
// remote-storage outages. A fault schedule is plain data — apply the same
// schedule to the same seeded run and every failure lands on the same
// virtual-time instant, so chaos experiments are reproducible and
// diffable like any other run.
package faults

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Kind classifies a fault.
type Kind int

const (
	// NodeDown kills a worker node: all containers are destroyed, queued
	// container acquisitions abort, in-flight executions are lost, and the
	// node's in-memory store shard drops. The node accepts work again after
	// the fault window.
	NodeDown Kind = iota
	// LinkDegraded multiplies a node's access-link capacity by Factor for
	// the window; Factor 0 partitions the node (messages queue, flows
	// starve) until the link heals.
	LinkDegraded
	// StoreOutage makes the remote KV unavailable for the window; issued
	// operations queue and drain in order on recovery.
	StoreOutage
	// EngineDown crashes a workflow engine: its journal tears at the crash
	// instant, every in-flight invocation is orphaned, and nothing runs
	// until the window closes and the engine restarts, replaying the
	// journal and re-dispatching only the uncommitted frontier. Targets
	// every attached engine (see AttachEngines); Node is unused.
	EngineDown
	// EngineKill crashes one federation member (Engine names it): its
	// journal tears, its lease stops renewing, and a peer claims its
	// shards after lease expiry. The member restarts and rejoins at the
	// window's close. Requires AttachFederation.
	EngineKill
	// EngineStall pauses one federation member's lease renewals for the
	// window while its engine keeps executing — the failure detector's
	// false-positive case. A stall longer than the lease TTL triggers a
	// claim of a live engine's shards, which epoch fencing must resolve.
	// Requires AttachFederation; Duration must be positive.
	EngineStall
)

func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case LinkDegraded:
		return "link-degraded"
	case StoreOutage:
		return "store-outage"
	case EngineDown:
		return "engine-down"
	case EngineKill:
		return "engine-kill"
	case EngineStall:
		return "engine-stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled failure window.
type Fault struct {
	Kind Kind
	// Node targets NodeDown and LinkDegraded faults; unused for StoreOutage.
	Node string
	// At is the failure instant, as an offset from Install time.
	At time.Duration
	// Duration is the fault window; the target recovers at At+Duration.
	// Zero or negative means the fault is permanent for the run.
	Duration time.Duration
	// Factor is the LinkDegraded capacity multiplier in [0,1].
	Factor float64
	// Engine targets EngineKill and EngineStall faults: the federation
	// member ID.
	Engine string
}

// Schedule is a set of fault windows, applied independently.
type Schedule []Fault

// Validate checks a schedule's internal consistency (targets are checked
// against the topology at Install time).
func (s Schedule) Validate() error {
	for i, f := range s {
		if f.At < 0 {
			return fmt.Errorf("faults: fault %d: negative At %v", i, f.At)
		}
		switch f.Kind {
		case NodeDown:
			if f.Node == "" {
				return fmt.Errorf("faults: fault %d: NodeDown needs a node", i)
			}
		case LinkDegraded:
			if f.Node == "" {
				return fmt.Errorf("faults: fault %d: LinkDegraded needs a node", i)
			}
			if f.Factor < 0 || f.Factor > 1 {
				return fmt.Errorf("faults: fault %d: factor %v outside [0,1]", i, f.Factor)
			}
		case StoreOutage, EngineDown:
		case EngineKill:
			if f.Engine == "" {
				return fmt.Errorf("faults: fault %d: EngineKill needs an engine", i)
			}
		case EngineStall:
			if f.Engine == "" {
				return fmt.Errorf("faults: fault %d: EngineStall needs an engine", i)
			}
			if f.Duration <= 0 {
				return fmt.Errorf("faults: fault %d: EngineStall needs a positive duration", i)
			}
		default:
			return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Engine is the slice of the workflow engine the injector drives for
// EngineDown faults (implemented by *engine.Deployment when a journal is
// attached).
type Engine interface {
	CrashEngine()
	RestartEngine()
}

// Federation is the slice of the federation control plane the injector
// drives for EngineKill and EngineStall faults (implemented by
// *federation.Federation).
type Federation interface {
	KillEngine(id string) error
	RestartEngine(id string) error
	StallEngine(id string, d time.Duration) error
	MemberIDs() []string
}

// Injector applies fault schedules to a simulation's substrate.
type Injector struct {
	env     *sim.Env
	nodes   map[string]*cluster.Node
	fab     *network.Fabric
	st      *store.Hybrid
	bus     *obs.Bus
	engines []Engine
	fed     Federation

	// downWindows records every NodeDown [start, end) armed at Install
	// time, so schedulers can ask whether a node is inside an injected
	// window at a given instant (see NodeDownAt).
	downWindows map[string][]window
}

type window struct {
	start sim.Time
	end   sim.Time // start for permanent faults means "never recovers"
	perm  bool
}

// NewInjector wires an injector to the substrate. fab, st, and bus may be
// nil when the corresponding fault kinds are not used.
func NewInjector(env *sim.Env, nodes map[string]*cluster.Node, fab *network.Fabric, st *store.Hybrid, bus *obs.Bus) *Injector {
	if env == nil {
		panic("faults: nil env")
	}
	return &Injector{
		env: env, nodes: nodes, fab: fab, st: st, bus: bus,
		downWindows: map[string][]window{},
	}
}

// AttachEngines registers the workflow engines EngineDown faults crash and
// restart. Call before Install when the schedule contains EngineDown.
func (i *Injector) AttachEngines(engines ...Engine) {
	i.engines = append(i.engines, engines...)
}

// AttachFederation registers the federation control plane EngineKill and
// EngineStall faults target. Call before Install when the schedule
// contains either kind.
func (i *Injector) AttachFederation(fed Federation) { i.fed = fed }

// NodeDownAt reports whether node sits inside an injected NodeDown window
// at instant t. Replacement placement consults this so re-dispatched work
// does not land on a node the schedule is about to kill (or has killed).
func (i *Injector) NodeDownAt(node string, t sim.Time) bool {
	for _, w := range i.downWindows[node] {
		if t >= w.start && (w.perm || t < w.end) {
			return true
		}
	}
	return false
}

// Install validates the schedule against the topology and arms every fault
// and recovery event on the simulation clock, relative to now.
func (i *Injector) Install(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for idx, f := range s {
		switch f.Kind {
		case NodeDown:
			if i.nodes[f.Node] == nil {
				return fmt.Errorf("faults: fault %d: unknown node %q", idx, f.Node)
			}
		case LinkDegraded:
			if i.fab == nil || !i.fab.HasNode(f.Node) {
				return fmt.Errorf("faults: fault %d: unknown fabric node %q", idx, f.Node)
			}
		case StoreOutage:
			if i.st == nil {
				return fmt.Errorf("faults: fault %d: no store attached", idx)
			}
		case EngineDown:
			if len(i.engines) == 0 {
				return fmt.Errorf("faults: fault %d: EngineDown with no engines attached", idx)
			}
		case EngineKill, EngineStall:
			if i.fed == nil {
				return fmt.Errorf("faults: fault %d: %v with no federation attached", idx, f.Kind)
			}
			known := false
			for _, id := range i.fed.MemberIDs() {
				if id == f.Engine {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("faults: fault %d: unknown federation member %q", idx, f.Engine)
			}
		}
	}
	now := i.env.Now()
	for _, f := range s {
		f := f
		if f.Kind == NodeDown {
			i.downWindows[f.Node] = append(i.downWindows[f.Node], window{
				start: now + sim.Time(f.At),
				end:   now + sim.Time(f.At+f.Duration),
				perm:  f.Duration <= 0,
			})
		}
		i.env.Schedule(f.At, func() { i.apply(f) })
		if f.Duration > 0 {
			i.env.Schedule(f.At+f.Duration, func() { i.recover(f) })
		}
	}
	return nil
}

func (i *Injector) apply(f Fault) {
	switch f.Kind {
	case NodeDown:
		i.nodes[f.Node].Fail()
		if i.st != nil {
			// A dead node's in-memory store shard dies with it; consumers
			// fall back to remote misses.
			i.st.DropWorker(f.Node)
		}
		i.pub(obs.NodeFaultEvent{Node: f.Node, Down: true, At: i.env.Now()})
	case LinkDegraded:
		i.fab.SetLinkFactor(f.Node, f.Factor) // publishes LinkFaultEvent
	case StoreOutage:
		i.st.Remote().SetAvailable(false)
		i.pub(obs.StoreFaultEvent{Down: true, At: i.env.Now()})
	case EngineDown:
		for _, e := range i.engines {
			e.CrashEngine() // publishes EngineFaultEvent
		}
	case EngineKill:
		i.fed.KillEngine(f.Engine) // federation publishes lease/claim events
	case EngineStall:
		i.fed.StallEngine(f.Engine, f.Duration)
	}
}

func (i *Injector) recover(f Fault) {
	switch f.Kind {
	case NodeDown:
		i.nodes[f.Node].Recover()
		i.pub(obs.NodeFaultEvent{Node: f.Node, Down: false, At: i.env.Now()})
	case LinkDegraded:
		i.fab.SetLinkFactor(f.Node, 1)
	case StoreOutage:
		i.st.Remote().SetAvailable(true)
		i.pub(obs.StoreFaultEvent{Down: false, At: i.env.Now()})
	case EngineDown:
		for _, e := range i.engines {
			e.RestartEngine() // publishes EngineFaultEvent
		}
	case EngineKill:
		i.fed.RestartEngine(f.Engine)
	case EngineStall:
		// StallEngine self-recovers at the window's close; the recovery
		// event only closes the bookkeeping window.
	}
}

func (i *Injector) pub(ev obs.Event) {
	if i.bus.Active() {
		i.bus.Publish(ev)
	}
}

// RandomNodeKills builds a schedule of n node deaths drawn deterministically
// from r: victims are picked from workers (sorted first, so iteration order
// of the caller's map does not leak in), kill instants are uniform over
// [window/4, 3*window/4] (mid-run, when work is in flight), and each node
// stays down for a duration uniform in [minDown, maxDown].
// RollingEngineKills builds the rolling-restart chaos schedule for a
// federation: member i is killed at start + i*every and restarts down
// later. With down < every at most one member is dead at a time, so every
// kill has a live successor to claim its shards — the gate scenario for
// zero lost steps across repeated failovers. Members are killed in sorted
// order for determinism.
func RollingEngineKills(members []string, start, every, down time.Duration) Schedule {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	var s Schedule
	for i, m := range sorted {
		s = append(s, Fault{
			Kind:     EngineKill,
			Engine:   m,
			At:       start + time.Duration(i)*every,
			Duration: down,
		})
	}
	return s
}

func RandomNodeKills(r *sim.Rand, workers []string, n int, window, minDown, maxDown time.Duration) Schedule {
	if len(workers) == 0 || n <= 0 {
		return nil
	}
	sorted := append([]string(nil), workers...)
	sort.Strings(sorted)
	if maxDown < minDown {
		maxDown = minDown
	}
	var s Schedule
	for k := 0; k < n; k++ {
		victim := sorted[int(r.Uint64()%uint64(len(sorted)))]
		at := window/4 + time.Duration(r.Float64()*float64(window/2))
		down := minDown + time.Duration(r.Float64()*float64(maxDown-minDown))
		s = append(s, Fault{Kind: NodeDown, Node: victim, At: at, Duration: down})
	}
	return s
}
