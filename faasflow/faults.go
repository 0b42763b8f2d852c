package faasflow

import (
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/sim"
)

// This file is the public fault-injection and recovery surface: schedule
// deterministic failures (node deaths, link degradation, storage outages)
// against a cluster, deploy workflows with the recovery layer enabled, and
// read back failure/recovery counters.

// FaultKind classifies an injected failure.
type FaultKind int

const (
	// NodeDown kills a worker for the fault window: containers destroyed,
	// in-flight work lost, warm pools gone until recovery.
	NodeDown FaultKind = iota
	// LinkDegraded scales a node's access-link capacity by Factor for the
	// window; Factor 0 partitions the node entirely.
	LinkDegraded
	// StoreOutage makes remote storage unavailable for the window; pending
	// operations queue and drain in order on recovery.
	StoreOutage
	// EngineDown crashes every deployed workflow engine for the window:
	// in-flight invocations orphan, the journal tears at the crash instant,
	// and restart replays committed steps (see DeployDurable). Node is
	// unused.
	EngineDown
)

// Fault is one scheduled failure window, relative to injection time.
type Fault struct {
	Kind     FaultKind
	Node     string        // target worker (NodeDown, LinkDegraded)
	At       time.Duration // failure instant
	Duration time.Duration // recovery happens at At+Duration; <=0 is permanent
	Factor   float64       // LinkDegraded capacity multiplier in [0,1]
}

// FaultSchedule is a set of fault windows applied independently.
type FaultSchedule []Fault

func (s FaultSchedule) internal() faults.Schedule {
	out := make(faults.Schedule, len(s))
	for i, f := range s {
		out[i] = faults.Fault{
			Kind:     faults.Kind(f.Kind),
			Node:     f.Node,
			At:       f.At,
			Duration: f.Duration,
			Factor:   f.Factor,
		}
	}
	return out
}

// InjectFaults validates the schedule against the cluster topology and arms
// every fault on the simulation clock. Faults fire during subsequent Run
// calls; apps deployed with recovery options re-place and re-issue the
// affected work.
func (c *Cluster) InjectFaults(s FaultSchedule) error {
	inj := faults.NewInjector(c.tb.Env, c.tb.Runtime.Nodes, c.tb.Fabric,
		c.tb.Runtime.Store, c.tb.Bus())
	// EngineDown faults target every engine deployed so far; deploy durable
	// apps before injecting them.
	for _, eng := range c.tb.Engines() {
		inj.AttachEngines(eng)
	}
	return inj.Install(s.internal())
}

// Workers lists the cluster's worker node IDs, in testbed order — fault
// schedule targets.
func (c *Cluster) Workers() []string {
	return append([]string(nil), c.tb.Workers...)
}

// RandomNodeKills builds a deterministic schedule of n worker deaths drawn
// from the seed: victims and instants are reproducible, with kills landing
// mid-window and outages lasting between minDown and maxDown.
func RandomNodeKills(seed uint64, workers []string, n int, window, minDown, maxDown time.Duration) FaultSchedule {
	internal := faults.RandomNodeKills(sim.NewRand(seed), workers, n, window, minDown, maxDown)
	out := make(FaultSchedule, len(internal))
	for i, f := range internal {
		out[i] = Fault{
			Kind:     FaultKind(f.Kind),
			Node:     f.Node,
			At:       f.At,
			Duration: f.Duration,
			Factor:   f.Factor,
		}
	}
	return out
}

// Recovery tunes the engine's fault-recovery layer for a deployment. Zero
// values take defaults; the zero struct enables recovery with a 30 s task
// timeout.
type Recovery struct {
	// TaskTimeout bounds one executor attempt end-to-end; a stranded
	// attempt is abandoned and re-issued when it expires. It must exceed
	// the longest healthy task's container wait + data movement + execution
	// or healthy work gets re-issued (default 30 s).
	TaskTimeout time.Duration
	// BackoffBase is the first re-issue backoff, doubling per failure up to
	// BackoffMax (default 200 ms base, 5 s cap).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxReissues bounds fault-driven re-issues per task before the
	// invocation is marked failed (default 8).
	MaxReissues int
}

// DeployWithRecovery is Deploy with the fault-recovery layer enabled:
// tasks time out and re-issue, and tasks stranded on dead nodes are
// re-placed onto surviving workers (MasterSP re-issues from the master;
// WorkerSP re-issues from the task's predecessor worker).
func (c *Cluster) DeployWithRecovery(wf *Workflow, mode Mode, rec Recovery) (*App, error) {
	return c.deploy(wf, rec.options(mode))
}

// options returns the engine options of a recovering deployment in the
// given mode, with the recovery defaults filled in.
func (r Recovery) options(mode Mode) engine.Options {
	if r.TaskTimeout == 0 {
		r.TaskTimeout = 30 * time.Second
	}
	if r.BackoffBase == 0 {
		r.BackoffBase = 200 * time.Millisecond
	}
	if r.BackoffMax == 0 {
		r.BackoffMax = 5 * time.Second
	}
	return engine.Options{
		Mode:        mode.engineMode(),
		Data:        engine.DataStore,
		TaskTimeout: r.TaskTimeout,
		BackoffBase: r.BackoffBase,
		BackoffMax:  r.BackoffMax,
		MaxReissues: r.MaxReissues,
	}
}

// FailureStats aggregates an app's failure and recovery counters.
type FailureStats = engine.FailureStats

// FailureStats reports the app's crash, timeout, re-issue, and re-placement
// counters so far. Federated apps aggregate across every member engine
// (with Exhausted the sorted cross-member union).
func (a *App) FailureStats() FailureStats {
	if a.fed == nil {
		return a.dep.Engine.FailureStatsSnapshot()
	}
	var out FailureStats
	for _, id := range a.fed.MemberIDs() {
		st := a.fed.Engine(id).FailureStatsSnapshot()
		out.Crashes += st.Crashes
		out.Retries += st.Retries
		out.Timeouts += st.Timeouts
		out.Reissues += st.Reissues
		out.Replacements += st.Replacements
		out.FailedInvocations += st.FailedInvocations
		out.DeadlineExceeded += st.DeadlineExceeded
		out.Shed += st.Shed
		out.ReissuesExhausted += st.ReissuesExhausted
	}
	out.Exhausted = a.fed.ExhaustionFailures()
	return out
}
