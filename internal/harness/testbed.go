// Package harness assembles the paper's testbed out of the substrates and
// drives every experiment in the evaluation (§5): it builds the 8-node
// cluster (7 workers + 1 master/storage node), deploys benchmarks under
// either scheduling pattern, runs closed- and open-loop clients, and
// renders each figure/table's data.
package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workloads"
)

// ClusterSpec configures a testbed. Zero values take the paper's defaults.
type ClusterSpec struct {
	Workers   int               // worker node count (paper: 7)
	WorkerBW  network.Bandwidth // worker link bandwidth (100 MB/s)
	StorageBW network.Bandwidth // storage/master link bandwidth (wondershaper target)
	Cluster   cluster.Config    // per-worker hardware (paper Table 3)
	// ScaleLimit caps scheduler container demand per worker (the
	// artifact's scale_limit knob).
	ScaleLimit int
	// FaaStore enables worker-local in-memory storage; off reproduces the
	// HyperFlow-serverless data path where everything goes to the DB.
	FaaStore bool
	// DBLatency is the remote store's per-request overhead.
	DBLatency time.Duration
	// ReclaimMu is the safety margin μ of the quota equation.
	ReclaimMu int64
	Seed      uint64
}

func (s ClusterSpec) withDefaults() ClusterSpec {
	if s.Workers == 0 {
		s.Workers = 7
	}
	if s.WorkerBW == 0 {
		s.WorkerBW = network.MBps(100)
	}
	if s.StorageBW == 0 {
		s.StorageBW = network.MBps(50)
	}
	if s.Cluster == (cluster.Config{}) {
		s.Cluster = cluster.DefaultConfig()
	}
	if s.ScaleLimit == 0 {
		s.ScaleLimit = 64
	}
	if s.DBLatency == 0 {
		s.DBLatency = time.Millisecond
	}
	if s.ReclaimMu == 0 {
		s.ReclaimMu = 16 << 20
	}
	return s
}

// MasterNode is the fabric ID of the master/storage node.
const MasterNode = "master"

// Testbed is one assembled cluster.
type Testbed struct {
	Spec    ClusterSpec
	Env     *sim.Env
	Fabric  *network.Fabric
	Runtime *engine.Runtime
	Workers []string
	Remote  *store.RemoteKV
	Mems    map[string]*store.MemKV

	// ScaleHint, when > 0, is used as every node's Scale(v) feedback value
	// during scheduling — co-location experiments set it to the observed
	// per-function container scale so groups split realistically.
	ScaleHint float64

	capLeft map[string]int // remaining scheduler capacity per worker
	bus     *obs.Bus
	engines []*engine.Deployment // every deployment made, for bus rewiring
}

// AttachBus wires an observability bus through every substrate — fabric,
// worker nodes, the hybrid store, and every engine deployment made so far
// — and remembers it so subsequent Deploy calls wire their engine and
// scheduler too. Pass nil to detach everything.
func (tb *Testbed) AttachBus(b *obs.Bus) {
	tb.bus = b
	tb.Fabric.SetBus(b)
	// Sorted node order: attach publishes NodeCapacityEvents, and snapshots
	// of identical runs must be byte-identical for the regression gate.
	ids := make([]string, 0, len(tb.Runtime.Nodes))
	for id := range tb.Runtime.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tb.Runtime.Nodes[id].SetBus(b)
	}
	tb.Runtime.Store.SetBus(b)
	for _, eng := range tb.engines {
		eng.SetObserver(b)
	}
}

// Bus reports the currently attached bus (nil when detached).
func (tb *Testbed) Bus() *obs.Bus { return tb.bus }

// SetTenantWeights installs relative tenant weights for weighted-fair
// Acquire queueing on every worker node (default 1 per tenant).
func (tb *Testbed) SetTenantWeights(weights map[string]float64) {
	ids := make([]string, 0, len(tb.Runtime.Nodes))
	for id := range tb.Runtime.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		tb.Runtime.Nodes[id].SetTenantWeights(weights)
	}
}

// SetReplication turns on k-way replication of FaaStore outputs with the
// given re-replication delay. A shard counts as alive while its worker
// node has not failed.
func (tb *Testbed) SetReplication(factor int, repairDelay time.Duration) {
	nodes := tb.Runtime.Nodes
	tb.Runtime.Store.SetReplication(factor, repairDelay)
	tb.Runtime.Store.SetAlive(func(n string) bool {
		node := nodes[n]
		return node == nil || !node.Failed()
	})
}

// Engines reports every engine deployment made on this testbed, in
// deployment order — fault injectors attach EngineDown targets through it.
func (tb *Testbed) Engines() []*engine.Deployment {
	return append([]*engine.Deployment(nil), tb.engines...)
}

// NewTestbed builds a cluster per spec.
func NewTestbed(spec ClusterSpec) *Testbed {
	spec = spec.withDefaults()
	env := sim.NewEnv()
	fab := network.New(env, network.DefaultConfig())
	fab.AddNode(MasterNode, spec.StorageBW, spec.StorageBW)
	nodes := map[string]*cluster.Node{}
	mems := map[string]*store.MemKV{}
	workers := make([]string, spec.Workers)
	capLeft := map[string]int{}
	for i := 0; i < spec.Workers; i++ {
		id := fmt.Sprintf("w%d", i)
		workers[i] = id
		fab.AddNode(id, spec.WorkerBW, spec.WorkerBW)
		nodes[id] = cluster.NewNode(env, id, spec.Cluster)
		mems[id] = store.NewMemKV(env, id, 0) // quota granted per deployment
		capLeft[id] = spec.ScaleLimit
	}
	remote := store.NewRemoteKV(env, fab, MasterNode, spec.DBLatency)
	hybrid := store.NewHybrid(remote, mems, !spec.FaaStore)
	return &Testbed{
		Spec:   spec,
		Env:    env,
		Fabric: fab,
		Runtime: &engine.Runtime{
			Env:    env,
			Fabric: fab,
			Nodes:  nodes,
			Store:  hybrid,
			Master: MasterNode,
		},
		Workers: workers,
		Remote:  remote,
		Mems:    mems,
		capLeft: capLeft,
	}
}

// SetStorageBandwidth throttles the storage node mid-run (the paper's
// wondershaper sweeps in §5.4).
func (tb *Testbed) SetStorageBandwidth(bw network.Bandwidth) {
	tb.Fabric.SetBandwidth(MasterNode, bw, bw)
}

// Deployment couples an engine deployment with its scheduler placement.
type Deployment struct {
	Bench     *workloads.Benchmark
	Engine    *engine.Deployment
	Placement *scheduler.Placement
}

// Deploy schedules a benchmark onto the testbed (Algorithm 1 grouping,
// FaaStore quota reclamation per Equations 1–2) and builds the engine
// deployment in the given mode. The paper routes HyperFlow-serverless with
// the same placement policy as FaaSFlow (control-variate method, §5.1), so
// both modes share this path; the pattern and the store configuration are
// what differ.
func (tb *Testbed) Deploy(bench *workloads.Benchmark, opts engine.Options) (*Deployment, error) {
	place, err := tb.schedule(bench)
	if err != nil {
		return nil, err
	}
	return tb.deployWithPlacement(bench, place, opts)
}

// DeployHashed deploys without Algorithm 1 — the hash-partition baseline
// used for the first iteration and for ablations.
func (tb *Testbed) DeployHashed(bench *workloads.Benchmark, opts engine.Options) (*Deployment, error) {
	in := tb.schedInput(bench)
	place, err := scheduler.HashPartition(in)
	if err != nil {
		return nil, err
	}
	return tb.deployWithPlacement(bench, place, opts)
}

func (tb *Testbed) schedInput(bench *workloads.Benchmark) scheduler.Input {
	capCopy := map[string]int{}
	for w, c := range tb.capLeft {
		capCopy[w] = c
	}
	quota := store.QuotaOf(bench.MemProfiles(tb.Spec.Cluster.ContainerMem), tb.Spec.ReclaimMu)
	var scale map[dag.NodeID]float64
	if tb.ScaleHint > 0 {
		scale = map[dag.NodeID]float64{}
		for _, n := range bench.Graph.Nodes() {
			scale[n.ID] = tb.ScaleHint
		}
	}
	return scheduler.Input{
		Scale: scale,
		Graph: bench.Graph,
		ExecSeconds: func(n dag.Node) float64 {
			return bench.Functions[n.Function].ExecSeconds
		},
		Contention: bench.Contention,
		Workers:    tb.Workers,
		Cap:        capCopy,
		Quota:      quota,
		RemoteBps:  float64(tb.Spec.StorageBW),
		Seed:       tb.Spec.Seed ^ uint64(len(bench.Name))<<32 ^ hashString(bench.Name),
		Bus:        tb.bus,
		Workflow:   bench.Name,
		Now:        tb.Env.Now(),
	}
}

func (tb *Testbed) schedule(bench *workloads.Benchmark) (*scheduler.Placement, error) {
	return scheduler.Schedule(tb.schedInput(bench))
}

func (tb *Testbed) deployWithPlacement(bench *workloads.Benchmark, place *scheduler.Placement, opts engine.Options) (*Deployment, error) {
	// Charge the scheduler capacity this benchmark consumes so later
	// deployments (co-location) pack around it.
	for _, grp := range place.Groups {
		tb.capLeft[grp.Worker] -= int(grp.Demand + 0.5)
		if tb.capLeft[grp.Worker] < 0 {
			tb.capLeft[grp.Worker] = 0
		}
	}
	// Grant each worker's MemKV the quota reclaimed from this workflow's
	// containers placed there (Equations 1–2, applied per worker).
	if tb.Spec.FaaStore {
		if err := tb.grantQuota(bench, place); err != nil {
			return nil, err
		}
	}
	eng, err := engine.NewDeployment(tb.Runtime, bench, place.Worker, opts)
	if err != nil {
		return nil, err
	}
	eng.SetObserver(tb.bus)
	tb.engines = append(tb.engines, eng)
	return &Deployment{Bench: bench, Engine: eng, Placement: place}, nil
}

// DeployReplicas deploys n engine deployments of one benchmark over a
// single scheduled placement — the federation's member engines. The
// scheduler capacity and FaaStore quota are charged once: the replicas are
// control-plane copies sharing the same worker fleet, not extra workload.
// optsFor builds each member's engine options (each federation member
// needs its own journal, so options cannot be shared verbatim).
func (tb *Testbed) DeployReplicas(bench *workloads.Benchmark, n int, optsFor func(i int) engine.Options) ([]*Deployment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("harness: DeployReplicas needs n > 0, got %d", n)
	}
	first, err := tb.Deploy(bench, optsFor(0))
	if err != nil {
		return nil, err
	}
	out := []*Deployment{first}
	for i := 1; i < n; i++ {
		eng, err := engine.NewDeployment(tb.Runtime, bench, first.Placement.Worker, optsFor(i))
		if err != nil {
			return nil, err
		}
		eng.SetObserver(tb.bus)
		tb.engines = append(tb.engines, eng)
		out = append(out, &Deployment{Bench: bench, Engine: eng, Placement: first.Placement})
	}
	return out, nil
}

// grantQuota computes per-worker reclaimable memory for the benchmark's
// nodes and hands it to the worker's in-memory store.
func (tb *Testbed) grantQuota(bench *workloads.Benchmark, place *scheduler.Placement) error {
	perWorker := map[string]int64{}
	for _, n := range bench.Graph.Nodes() {
		if n.Kind != dag.KindTask {
			continue
		}
		spec := bench.Functions[n.Function]
		prov := spec.MemProvision
		if prov == 0 {
			prov = tb.Spec.Cluster.ContainerMem
		}
		o := store.Overprovision(store.FunctionMem{
			Provisioned: prov,
			PeakUsage:   spec.MemPeak,
			Map:         float64(n.Width),
		}, tb.Spec.ReclaimMu)
		perWorker[place.Worker[n.ID]] += o
	}
	for w, q := range perWorker {
		node := tb.Runtime.Nodes[w]
		if err := node.Reclaim(q); err != nil {
			return fmt.Errorf("harness: quota reclamation on %s: %w", w, err)
		}
		mem := tb.Mems[w]
		mem.SetQuota(mem.Quota() + q)
	}
	return nil
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
