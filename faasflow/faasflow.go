// Package faasflow is the public API of the FaaSFlow reproduction: a
// serverless workflow engine with worker-side scheduling (WorkerSP) and
// adaptive hybrid storage (FaaStore), running on a deterministic simulated
// cluster, after "FaaSFlow: Enable Efficient Workflow Execution for
// Function-as-a-Service" (ASPLOS 2022).
//
// A minimal session:
//
//	wf, _ := faasflow.NewWorkflow("pipeline").
//		Function("extract", 0.2, 64<<20).
//		Function("load", 0.1, 32<<20).
//		Task("extract-step", "extract", 4<<20).
//		Task("load-step", "load", 0).
//		Pipe("extract-step", "load-step").
//		Build()
//
//	cluster := faasflow.NewCluster(faasflow.WithFaaStore(true))
//	app, _ := cluster.Deploy(wf, faasflow.DeployOptions{Mode: faasflow.WorkerSP})
//	stats, _ := app.Run(faasflow.RunSpec{N: 100, Warmup: 1})
//	fmt.Println(stats.Mean, stats.P99)
//
// App.Run sends one RunSpec: a closed loop by default, an open loop at
// RunSpec.PerMinute (fixed or Poisson arrivals), optionally through
// admission control, with per-invocation arguments, tenant and deadline.
// Cluster.Run drives several apps together on one clock (co-location).
//
// Workflows can equally be compiled from WDL YAML/JSON definitions
// (WorkflowFromWDL) or taken from the paper's eight benchmarks
// (Benchmarks, Benchmark).
package faasflow

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/network"
	"repro/internal/wdl"
	"repro/internal/workloads"
)

// Mode selects the workflow scheduling pattern.
type Mode int

const (
	// WorkerSP is FaaSFlow's decentralized worker-side pattern.
	WorkerSP Mode = iota
	// MasterSP is the centralized HyperFlow-serverless baseline.
	MasterSP
)

func (m Mode) String() string {
	if m == MasterSP {
		return "MasterSP"
	}
	return "WorkerSP"
}

// Option configures a Cluster.
type Option func(*harness.ClusterSpec)

// WithWorkers sets the number of worker nodes (default 7, as in the paper).
func WithWorkers(n int) Option {
	return func(s *harness.ClusterSpec) { s.Workers = n }
}

// WithStorageBandwidthMBps throttles the storage/master node's link (the
// paper's wondershaper knob; default 50 MB/s).
func WithStorageBandwidthMBps(v float64) Option {
	return func(s *harness.ClusterSpec) { s.StorageBW = network.MBps(v) }
}

// WithFaaStore toggles the adaptive in-memory storage layer (default off:
// all intermediate data goes to the remote database).
func WithFaaStore(on bool) Option {
	return func(s *harness.ClusterSpec) { s.FaaStore = on }
}

// WithScaleLimit caps the scheduler's per-worker container demand.
func WithScaleLimit(n int) Option {
	return func(s *harness.ClusterSpec) { s.ScaleLimit = n }
}

// WithSeed fixes the scheduling hash seed for reproducible placements.
func WithSeed(seed uint64) Option {
	return func(s *harness.ClusterSpec) { s.Seed = seed }
}

// Cluster is a simulated FaaS cluster: worker nodes, a master/storage
// node, a fair-share network fabric, and (optionally) FaaStore.
type Cluster struct {
	tb  *harness.Testbed
	adm *admission.Controller // nil until SetAdmission; nil admits everything
}

// NewCluster builds a cluster with the paper's defaults (7 workers, 8
// cores / 32 GB each, 50 MB/s storage link) adjusted by opts.
func NewCluster(opts ...Option) *Cluster {
	spec := harness.ClusterSpec{FaaStore: true}
	for _, o := range opts {
		o(&spec)
	}
	return &Cluster{tb: harness.NewTestbed(spec)}
}

// Utilization is a snapshot of cluster resource use.
type Utilization struct {
	// Containers is the number of live (warm or busy) containers.
	Containers int
	// ColdStarts and WarmReuses are lifetime acquisition counters.
	ColdStarts, WarmReuses int64
	// CPUBusy is the summed core-busy time across workers.
	CPUBusy time.Duration
	// NetworkBytes is the total bytes that crossed the fabric.
	NetworkBytes int64
	// StoreLocalHits and StoreRemoteOps count FaaStore routing decisions.
	StoreLocalHits, StoreRemoteOps int64
}

// Utilization reports cumulative cluster resource usage across all
// deployments and runs on this cluster.
func (c *Cluster) Utilization() Utilization {
	var u Utilization
	for _, id := range c.tb.Workers {
		n := c.tb.Runtime.Nodes[id]
		st := n.Stats()
		u.Containers += n.Containers()
		u.ColdStarts += st.ColdStarts
		u.WarmReuses += st.WarmReuses
		u.CPUBusy += st.CPUBusy
	}
	u.NetworkBytes = c.tb.Fabric.Stats().TotalBytes
	u.StoreLocalHits = c.tb.Runtime.Store.LocalHits()
	remote := c.tb.Remote.Stats()
	u.StoreRemoteOps = remote.Puts + remote.Gets
	return u
}

// Workflow is a deployable workflow: a DAG plus its function cost models.
type Workflow struct {
	bench *workloads.Benchmark
}

// Name reports the workflow's name.
func (w *Workflow) Name() string { return w.bench.Name }

// Tasks reports the number of task nodes.
func (w *Workflow) Tasks() int { return w.bench.Graph.TaskCount() }

// TotalBytes reports the payload bytes a single invocation moves across
// all edges.
func (w *Workflow) TotalBytes() int64 { return w.bench.Graph.TotalBytes() }

// Benchmarks returns the paper's eight evaluation workloads.
func Benchmarks() []*Workflow {
	var out []*Workflow
	for _, b := range workloads.All() {
		out = append(out, &Workflow{bench: b})
	}
	return out
}

// Benchmark returns one paper workload by its short name (Cyc, Epi, Gen,
// Soy, Vid, IR, FP, WC) or nil.
func Benchmark(name string) *Workflow {
	b := workloads.ByName(name)
	if b == nil {
		return nil
	}
	return &Workflow{bench: b}
}

// FunctionSpec models one function's cost: execution seconds on an
// uncontended core and its peak memory in bytes.
type FunctionSpec struct {
	ExecSeconds float64
	MemPeak     int64
}

// WorkflowFromWDL compiles a WDL YAML definition into a Workflow. Every
// function referenced by the definition must appear in fns.
func WorkflowFromWDL(src string, fns map[string]FunctionSpec) (*Workflow, error) {
	parsed, err := wdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return fromParsed(parsed, fns)
}

// WorkflowFromJSON compiles a JSON workflow definition (same schema as
// WDL YAML).
func WorkflowFromJSON(src []byte, fns map[string]FunctionSpec) (*Workflow, error) {
	parsed, err := wdl.ParseJSON(src)
	if err != nil {
		return nil, err
	}
	return fromParsed(parsed, fns)
}

func fromParsed(parsed *wdl.Workflow, fns map[string]FunctionSpec) (*Workflow, error) {
	specs := map[string]workloads.FunctionSpec{}
	for name, f := range fns {
		if f.ExecSeconds <= 0 {
			return nil, fmt.Errorf("faasflow: function %q has non-positive ExecSeconds", name)
		}
		mem := f.MemPeak
		if mem <= 0 {
			mem = 64 << 20
		}
		specs[name] = workloads.FunctionSpec{Name: name, ExecSeconds: f.ExecSeconds, MemPeak: mem}
	}
	bench := &workloads.Benchmark{
		Name:      parsed.Name,
		Graph:     parsed.Graph,
		Functions: specs,
	}
	if err := bench.Validate(); err != nil {
		return nil, err
	}
	return &Workflow{bench: bench}, nil
}

// App is a workflow deployed onto a cluster, ready to invoke.
type App struct {
	cluster *Cluster
	dep     *harness.Deployment
	// opts records the deployment options so what-if analysis can replay
	// this exact configuration on a fresh testbed.
	opts engine.Options
	// fed is non-nil for federated apps: dep is then member 0 of the
	// federation and invocations must route through fed (see federation.go).
	fed *federation.Federation
}

// DeployOptions selects the layers a deployment runs with. The zero value
// is the paper's deployment: WorkerSP, no recovery layer, no journal, and
// the fast path off.
type DeployOptions struct {
	// Mode is the scheduling pattern.
	Mode Mode
	// FastPath enables data-plane fast-path features (all off by default).
	// Direct passing is skipped while Durability.ReplicationFactor > 1
	// (durability requires the replicated store hop); memo hits still
	// commit journal records so crash replay skips them.
	FastPath FastPath
	// Recovery enables the fault-recovery layer: tasks time out and
	// re-issue, and tasks stranded on dead nodes are re-placed onto
	// surviving workers (MasterSP re-issues from the master; WorkerSP from
	// the task's predecessor worker). Nil leaves it off unless Durability
	// or Federation is set; those take the recovery defaults.
	Recovery *Recovery
	// Durability gives the engine a write-ahead journal: every completed
	// step commits a record before its successors observe it, and an
	// engine crash (an injected EngineDown fault) recovers by replaying the
	// journal and re-dispatching only the uncommitted cut. Nil means no
	// journal; Federation alone implies the zero Durability.
	Durability *Durability
	// Federation deploys the workflow behind a sharded engine federation of
	// journaled member engines (see FederationOptions). Nil deploys one
	// engine.
	Federation *FederationOptions
}

// Deploy schedules the workflow onto the cluster (Algorithm 1 grouping
// with FaaStore quota reclamation) and prepares it for invocation with the
// layers o selects. Every option default is applied here.
func (c *Cluster) Deploy(wf *Workflow, o DeployOptions) (*App, error) {
	opts := engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore, FastPath: o.FastPath}
	if o.Mode == MasterSP {
		opts.Mode = engine.ModeMasterSP
	}
	dur, rec := o.Durability, o.Recovery
	if dur == nil && o.Federation != nil {
		dur = &Durability{}
	}
	if rec == nil && dur != nil {
		rec = &Recovery{}
	}
	if rec != nil {
		opts.TaskTimeout = cmp.Or(rec.TaskTimeout, 30*time.Second)
		opts.BackoffBase = cmp.Or(rec.BackoffBase, 200*time.Millisecond)
		opts.BackoffMax = cmp.Or(rec.BackoffMax, 5*time.Second)
		opts.MaxReissues = rec.MaxReissues
	}
	members := 1
	if o.Federation != nil {
		members = cmp.Or(o.Federation.Members, 3)
		if members < 0 {
			return nil, fmt.Errorf("faasflow: federation needs members > 0, got %d", members)
		}
	}
	if dur != nil && dur.ReplicationFactor > 1 {
		c.tb.SetReplication(dur.ReplicationFactor, dur.RepairInterval)
	}
	// Every engine gets its own journal; a federation's handoff replays
	// read the union view across members.
	deps, err := c.tb.DeployReplicas(wf.bench, members, func(int) engine.Options {
		eo := opts
		if dur != nil {
			eo.Journal = journal.New(c.tb.Env, journal.Config{SyncLatency: dur.SyncLatency, BatchWindow: dur.BatchWindow})
		}
		return eo
	})
	if err != nil {
		return nil, err
	}
	app := &App{cluster: c, dep: deps[0], opts: opts}
	app.opts.Journal = app.dep.Engine.Journal()
	if o.Federation == nil {
		return app, nil
	}
	fo := o.Federation
	fedMembers := make([]federation.Member, len(deps))
	for i, d := range deps {
		fedMembers[i] = federation.Member{
			ID:      fmt.Sprintf("engine-%d", i),
			Engine:  d.Engine,
			Journal: d.Engine.Journal(),
		}
	}
	app.fed, err = c.tb.Federate(federation.Config{
		Shards:       fo.Shards,
		LeaseTTL:     fo.LeaseTTL,
		RenewEvery:   fo.RenewEvery,
		CheckEvery:   fo.CheckEvery,
		HandoffDelay: fo.HandoffDelay,
		Seed:         cmp.Or(fo.Seed, c.tb.Spec.Seed+1),
	}, fedMembers...)
	if err != nil {
		return nil, err
	}
	return app, nil
}

// Placement reports where each workflow step runs, by step name.
func (a *App) Placement() map[string]string {
	out := map[string]string{}
	place := a.dep.Engine.Placement()
	for _, n := range a.dep.Bench.Graph.Nodes() {
		out[n.Name] = place[n.ID]
	}
	return out
}

// Groups reports how many function groups the scheduler formed.
func (a *App) Groups() int { return len(a.dep.Placement.Groups) }

// LocalizedFraction reports the fraction of edge payload bytes that stay
// worker-local under the current placement.
func (a *App) LocalizedFraction() float64 {
	local, total := a.dep.Placement.LocalityBytes(a.dep.Bench.Graph)
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}

// Refresh runs one feedback partition iteration (collect observed
// container scale, regroup, red-black redeploy).
func (a *App) Refresh() error {
	_, err := harness.RefreshPlacement(a.cluster.tb, a.dep)
	return err
}

// CriticalExec reports the workflow's critical-path execution time — the
// lower bound on any invocation's latency.
func (a *App) CriticalExec() time.Duration {
	return time.Duration(a.dep.Engine.CriticalExecSeconds() * float64(time.Second))
}

// Builder assembles a workflow programmatically. Errors accumulate and
// surface at Build.
type Builder struct {
	name  string
	g     *dag.Graph
	fns   map[string]workloads.FunctionSpec
	ids   map[string]dag.NodeID
	bytes map[string]int64
	err   error
}

// NewWorkflow starts a builder for a workflow with the given name.
func NewWorkflow(name string) *Builder {
	return &Builder{
		name:  name,
		g:     dag.New(name),
		fns:   map[string]workloads.FunctionSpec{},
		ids:   map[string]dag.NodeID{},
		bytes: map[string]int64{},
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("faasflow: "+format, args...)
	}
	return b
}

// Function registers a function cost model.
func (b *Builder) Function(name string, execSeconds float64, memPeak int64) *Builder {
	if execSeconds <= 0 {
		return b.fail("function %q: non-positive ExecSeconds", name)
	}
	if memPeak <= 0 {
		memPeak = 64 << 20
	}
	b.fns[name] = workloads.FunctionSpec{Name: name, ExecSeconds: execSeconds, MemPeak: memPeak}
	return b
}

// Task adds a workflow step invoking a registered function. outputBytes is
// the payload the step sends each successor.
func (b *Builder) Task(step, function string, outputBytes int64) *Builder {
	if _, dup := b.ids[step]; dup {
		return b.fail("duplicate step %q", step)
	}
	if outputBytes < 0 {
		return b.fail("step %q: negative output", step)
	}
	b.ids[step] = b.g.AddTask(step, function)
	b.bytes[step] = outputBytes
	return b
}

// Pipe connects two previously added steps; the payload is the producer's
// registered output size.
func (b *Builder) Pipe(from, to string) *Builder {
	fid, ok := b.ids[from]
	if !ok {
		return b.fail("unknown step %q", from)
	}
	tid, ok := b.ids[to]
	if !ok {
		return b.fail("unknown step %q", to)
	}
	b.g.Connect(fid, tid, b.bytes[from])
	return b
}

// Build validates and returns the workflow.
func (b *Builder) Build() (*Workflow, error) {
	if b.err != nil {
		return nil, b.err
	}
	bench := &workloads.Benchmark{Name: b.name, Graph: b.g, Functions: b.fns}
	if err := bench.Validate(); err != nil {
		return nil, err
	}
	return &Workflow{bench: bench}, nil
}
